"""Rational functions whose denominators are products of two-variable
binomials z_i - c z_j with c a monomial in q.

A factor is a ``BinomialFactor``, the tuple (i, j, s, a) for
z_i - a q^s z_j with i before j in variable order; its tuple order is
the factor order.  Dividing by a q-monomial is exponent arithmetic, so
``BinomialFactor.make`` and ``relabel`` canonicalize and flip factors
without any ``RatQ`` division.

This family is closed under the operations the shuffle product and the
pole-sum identities need: sums, products, variable relabelings and
symmetrizations.  A ``RatFun`` is kept fully reduced (no denominator
factor divides the numerator), which makes equality structural and
``is_zero`` a plain numerator check.  It takes the scalars
``MultiLaurent`` takes (int, Fraction, ``LaurentQ`` and Laurent
``RatQ``) wherever it takes a scalar.  ``relabel_fraction``,
``fraction_sum`` and ``fractions_equal`` work on unreduced (numerator,
denominator) pairs instead, and divide nothing.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import permutations

from .poly import MultiLaurent, NotDivisible, VarId
from .qring import RQ_ONE, LaurentQ, RatQ, _q_monomial, coefficient



class BinomialFactor(namedtuple("BinomialFactor", "i j s a")):
    """The canonical binomial z_i - a q^s z_j with i before j in variable
    order, stored as the tuple (i, j, s, a): the tuple order is the
    factor order."""

    __slots__ = ()

    def __new__(cls, i: VarId, j: VarId, c):
        a, s = _q_monomial(c, "binomial scalar")
        return cls.from_parts(i, j, s, a)

    @classmethod
    def from_parts(cls, i: VarId, j: VarId, s: int, a=1):
        """The factor z_i - a q^s z_j, a a nonzero int or Fraction."""
        if i == j:
            raise ValueError("binomial needs two distinct variables")
        if i > j:
            raise ValueError("factor stored against the variable order")
        return tuple.__new__(cls, (i, j, s, a))

    def __getnewargs__(self):
        return (self.i, self.j, self.c)

    @property
    def c(self) -> RatQ:
        """The scalar a q^s."""
        return RatQ.q_power(self.s, self.a)

    @classmethod
    def make(cls, a, vi: VarId, b, vj: VarId):
        """Canonicalize a*z_vi - b*z_vj; returns (factor, unit) with
        a*z_vi - b*z_vj = unit * (z_i - c z_j)."""
        (x, s), (y, t) = (_q_monomial(v, "binomial coefficient") for v in (a, b))
        if vi < vj:
            return cls.from_parts(vi, vj, t - s, coefficient(Fraction(y, x))), RatQ.q_power(s, x)
        return cls.from_parts(vj, vi, s - t, coefficient(Fraction(x, y))), RatQ.q_power(t, -y)

    def relabel(self, mapping: dict):
        """Rename variables; returns (factor, unit) since the orientation
        may flip: z_j - a q^s z_i = -a q^s (z_i - a^-1 q^-s z_j)."""
        i, j, s, a = self
        ni, nj = mapping.get(i, i), mapping.get(j, j)
        if ni < nj:
            return self.from_parts(ni, nj, s, a), RQ_ONE
        return self.from_parts(nj, ni, -s, coefficient(Fraction(1, a))), RatQ.q_power(s, -a)

    def eval_at(self, q0: Fraction, assignment: dict) -> Fraction:
        c = LaurentQ.q_power(self.s, self.a).eval_at(q0)
        return Fraction(assignment[self.i]) - c * Fraction(assignment[self.j])

    def __str__(self) -> str:
        return f"({self.i} - ({LaurentQ.q_power(self.s, self.a)}) {self.j})"


def factor_product(factors, start: MultiLaurent | None = None) -> MultiLaurent:
    """Multiply out a {factor: multiplicity} mapping (or iterable of
    (factor, mult) pairs) into a MultiLaurent."""
    out = MultiLaurent.constant(1) if start is None else start
    items = factors.items() if isinstance(factors, dict) else factors
    for f, mult in items:
        for _ in range(mult):
            out = out._mul_binomial(f.i, (1, 0), f.j, (-f.a, f.s))
    return out


class RatFun:
    """num / prod(factors^mult), fully reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiLaurent, den=None, _reduced=False):
        if not isinstance(num, MultiLaurent):
            num = MultiLaurent.constant(num)
        den = dict(den) if den else {}
        for f, m in den.items():
            if not isinstance(f, BinomialFactor) or type(m) is not int or m < 1:
                raise ValueError("denominator must map factors to positive counts")
        if num.is_zero():
            den = {}
        elif not _reduced:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    @classmethod
    def from_scalar(cls, c) -> RatFun:
        return cls(MultiLaurent.constant(c))

    @classmethod
    def zero(cls) -> RatFun:
        return cls(MultiLaurent.zero())

    @classmethod
    def inverse_factor(cls, f: BinomialFactor) -> RatFun:
        return cls(MultiLaurent.constant(1), {f: 1}, _reduced=True)

    # ---------- predicates ----------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_polynomial(self) -> bool:
        return not self.den

    # ---------- arithmetic ----------

    def __add__(self, other) -> RatFun:
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return rat_sum([self, other])

    __radd__ = __add__

    def __neg__(self) -> RatFun:
        return RatFun(-self.num, self.den, _reduced=True)

    def __sub__(self, other) -> RatFun:
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> RatFun:
        return _as_ratfun(other) + (-self)

    def __mul__(self, other) -> RatFun:
        if not isinstance(other, (RatFun, MultiLaurent)):
            try:
                return self.scale(other)
            except TypeError:
                return NotImplemented
        other = _as_ratfun(other)
        # both operands are reduced and distinct binomials are coprime
        # primes, so a factor can only cancel against the other operand's
        # numerator (the rule of fractions.Fraction)
        num, oden = _reduce(self.num, other.den)
        onum, den = _reduce(other.num, self.den)
        for f, m in oden.items():
            den[f] = den.get(f, 0) + m
        return RatFun(num * onum, den, _reduced=True)

    __rmul__ = __mul__

    def scale(self, c) -> RatFun:
        return RatFun(self.num.scale(c), self.den, _reduced=True)

    def __truediv__(self, other) -> RatFun:
        try:
            return self.scale(RQ_ONE / other)
        except TypeError:
            return NotImplemented

    def mul_factor(self, f: BinomialFactor, mult: int = 1) -> RatFun:
        if mult < 0:
            return self.div_factor(f, -mult)
        return self * RatFun(factor_product({f: mult}))

    def div_factor(self, f: BinomialFactor, mult: int = 1) -> RatFun:
        if mult < 0:
            return self.mul_factor(f, -mult)
        return self * RatFun(MultiLaurent.constant(1), {f: mult}, _reduced=True)

    # ---------- relabeling and symmetry ----------

    def relabel(self, mapping: dict) -> RatFun:
        return RatFun(*relabel_fraction(self.num, self.den, mapping), _reduced=True)

    def vars(self) -> tuple[VarId, ...]:
        seen = set(self.num.vars)
        for f in self.den:
            seen.add(f.i)
            seen.add(f.j)
        return tuple(sorted(seen))

    # ---------- evaluation ----------

    def eval_at(self, q0: Fraction, assignment: dict) -> Fraction:
        d = Fraction(1)
        for f, m in self.den.items():
            v = f.eval_at(q0, assignment)
            if v == 0:
                raise ZeroDivisionError(f"denominator factor {f} vanishes")
            d *= v**m
        return self.num.eval_at(q0, assignment) / d

    # ---------- comparison and display ----------

    def __eq__(self, other) -> bool:
        try:
            other = _as_ratfun(other)
        except ValueError:  # a scalar outside Q[q, q^-1] is no RatFun value
            return False
        if other is NotImplemented:
            return NotImplemented
        # both sides are reduced, so equality is structural
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        if not self.den:
            return hash(self.num)  # equal to its numerator polynomial
        return hash((self.num, frozenset(self.den.items())))

    def sorted_den(self):
        return sorted(self.den.items())

    def __str__(self) -> str:
        if not self.den:
            return str(self.num)
        ds = " ".join(
            str(f) if m == 1 else f"{f}^{m}" for f, m in self.sorted_den()
        )
        return f"[{self.num}] / {ds}"

    def __repr__(self) -> str:
        return f"RatFun({self})"


def _reduce(num: MultiLaurent, den: dict):
    # distinct canonical binomials z_i - c z_j are pairwise coprime primes,
    # so a factor that does not divide num still does not once another
    # factor is divided out: one pass over the factors is enough
    den = dict(den)
    for f in list(den):
        while den.get(f, 0) > 0:
            try:
                num = num._exact_div_binomial(f.i, f.j, f.a, f.s)
            except NotDivisible:
                break
            den[f] -= 1
            if den[f] == 0:
                del den[f]
    return num, den


def _as_ratfun(x):
    if isinstance(x, RatFun):
        return x
    try:
        return RatFun(x)
    except TypeError:
        return NotImplemented


def relabel_fraction(num: MultiLaurent, den: dict, mapping: dict):
    """Rename the variables of num / prod(den); returns (num, den) with
    the units of reoriented factors moved into the numerator."""
    out = {}
    unit = RQ_ONE
    for f, m in den.items():
        nf, u = f.relabel(mapping)
        out[nf] = out.get(nf, 0) + m
        if not u.is_one():
            unit = unit * u**m
    num = num.relabel(mapping)
    if not unit.is_one():
        num = num.scale(RQ_ONE / unit)
    return num, out


def den_lcm(dens) -> dict[BinomialFactor, int]:
    """Least common multiple of {factor: multiplicity} denominators."""
    lcm: dict[BinomialFactor, int] = {}
    for den in dens:
        for f, m in den.items():
            if lcm.get(f, 0) < m:
                lcm[f] = m
    return lcm


def cofactor(full: dict, part: dict) -> list:
    """The factors of prod(full) / prod(part), for part dividing full, as
    (factor, multiplicity) pairs for ``factor_product``."""
    return [(f, m - part.get(f, 0)) for f, m in full.items() if m > part.get(f, 0)]


def cancel_common(a: dict, b: dict):
    """What is left of two {factor: multiplicity} mappings once the
    factors they share are cancelled by count."""
    common = {f: min(m, b[f]) for f, m in a.items() if f in b}
    return dict(cofactor(a, common)), dict(cofactor(b, common))


def fraction_sum(terms) -> tuple[MultiLaurent, dict]:
    """Sum of (numerator, denominator) pairs over their lcm, unreduced:
    returns (N, lcd) with N / prod(lcd) the sum."""
    terms = list(terms)
    lcd = den_lcm(den for _, den in terms)
    total = MultiLaurent.zero()
    for num, den in terms:
        total = total + factor_product(cofactor(lcd, den), start=num)
    return total, lcd


def fractions_equal(a, b) -> bool:
    """Whether the unreduced fractions a = (num, den) and b = (num, den)
    are equal, cross-multiplied over the lcm of their denominators: exact,
    since Q[q, 1/q][z, 1/z] is an integral domain, and division-free."""
    (na, da), (nb, db) = a, b
    da, db = cancel_common(da, db)
    return factor_product(db, start=na) == factor_product(da, start=nb)


def rat_sum(terms) -> RatFun:
    """Sum of RatFuns over one common denominator (single reduction)."""
    terms = [t for t in terms if not t.is_zero()]
    if not terms:
        return RatFun.zero()
    if len(terms) == 1:
        return terms[0]
    return RatFun(*fraction_sum((t.num, t.den) for t in terms))


def sym_group(f: RatFun, vs) -> RatFun:
    """Sum of all relabelings of f permuting the given variables."""
    vs = tuple(vs)
    return rat_sum(f.relabel(dict(zip(vs, perm))) for perm in permutations(vs))
