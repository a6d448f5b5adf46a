"""Rational functions whose denominators are products of two-variable
binomials z_i - c z_j with c a monomial in q.

This family is closed under the operations the shuffle product and the
pole-sum identities need: sums, products, variable relabelings and
symmetrizations.  A ``RatFun`` is kept fully reduced (no denominator
factor divides the numerator), which makes equality structural and
``is_zero`` a plain numerator check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import MultiLaurent, NotDivisible, VarId
from .qring import RQ_ONE, RatQ


@dataclass(frozen=True)
class BinomialFactor:
    """The canonical binomial z_i - c z_j with i before j in variable order."""

    i: VarId
    j: VarId
    c: RatQ

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("binomial needs two distinct variables")
        if self.i.sort_key() > self.j.sort_key():
            raise ValueError("factor stored against the variable order")
        if not self.c.is_q_monomial():
            raise ValueError("binomial scalar must be a nonzero q-monomial")

    @staticmethod
    def make(a, vi: VarId, b, vj: VarId):
        """Canonicalize a*z_vi - b*z_vj; returns (factor, unit) with
        a*z_vi - b*z_vj = unit * (z_i - c z_j)."""
        a = RatQ.coerce(a)
        b = RatQ.coerce(b)
        if not (a.is_q_monomial() and b.is_q_monomial()):
            raise ValueError("binomial coefficients must be nonzero q-monomials")
        if vi.sort_key() < vj.sort_key():
            return BinomialFactor(vi, vj, b / a), a
        return BinomialFactor(vj, vi, a / b), -b

    def relabel(self, mapping: dict):
        """Rename variables; returns (factor, unit) since the orientation
        may flip."""
        ni = mapping.get(self.i, self.i)
        nj = mapping.get(self.j, self.j)
        return BinomialFactor.make(RQ_ONE, ni, self.c, nj)

    def eval_at(self, q0: Fraction, assignment: dict) -> Fraction:
        return Fraction(assignment[self.i]) - self.c.eval_at(q0) * Fraction(
            assignment[self.j]
        )

    def sort_key(self):
        cm = self.c.num
        e = cm.min_exp()
        return (self.i.sort_key(), self.j.sort_key(), e, cm.coeff(e))

    def __str__(self) -> str:
        return f"({self.i} - ({self.c}) {self.j})"


def factor_product(factors, start: MultiLaurent | None = None) -> MultiLaurent:
    """Multiply out a {factor: multiplicity} mapping (or iterable of
    (factor, mult) pairs) into a MultiLaurent."""
    out = MultiLaurent.constant(1) if start is None else start
    items = factors.items() if isinstance(factors, dict) else factors
    for f, mult in items:
        for _ in range(mult):
            out = out.mul_binomial(RQ_ONE, f.i, -f.c, f.j)
    return out


class RatFun:
    """num / prod(factors^mult), fully reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiLaurent, den=None, _reduced=False):
        if not isinstance(num, MultiLaurent):
            num = MultiLaurent.constant(RatQ.coerce(num))
        den = dict(den) if den else {}
        for f, m in den.items():
            if not isinstance(f, BinomialFactor) or m < 1:
                raise ValueError("denominator must map factors to positive counts")
        if num.is_zero():
            den = {}
        elif not _reduced:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    @classmethod
    def from_scalar(cls, c) -> RatFun:
        return cls(MultiLaurent.constant(RatQ.coerce(c)))

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
        if isinstance(other, (int, Fraction, RatQ)):
            return self.scale(other)
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
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
        c = RatQ.coerce(c)
        if not c:
            return RatFun.zero()
        return RatFun(self.num.scale(c), self.den, _reduced=True)

    def __truediv__(self, other) -> RatFun:
        if isinstance(other, (int, Fraction, RatQ)):
            return self.scale(RQ_ONE / RatQ.coerce(other))
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
        num = self.num.relabel(mapping)
        den = {}
        unit = RQ_ONE
        for f, m in self.den.items():
            nf, u = f.relabel(mapping)
            den[nf] = den.get(nf, 0) + m
            if not u.is_one():
                unit = unit * u**m
        if not unit.is_one():
            num = num.scale(RQ_ONE / unit)
        return RatFun(num, den, _reduced=True)

    def vars(self) -> tuple[VarId, ...]:
        seen = set(self.num.vars)
        for f in self.den:
            seen.add(f.i)
            seen.add(f.j)
        return tuple(sorted(seen, key=VarId.sort_key))

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
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        # both sides are reduced, so equality is structural
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        if not self.den:
            return hash(self.num)  # equal to its numerator polynomial
        return hash((self.num, frozenset(self.den.items())))

    def sorted_den(self):
        return sorted(self.den.items(), key=lambda fm: fm[0].sort_key())

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
                num = num.exact_div_binomial(f.i, f.j, f.c)
            except NotDivisible:
                break
            den[f] -= 1
            if den[f] == 0:
                del den[f]
    return num, den


def _as_ratfun(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, MultiLaurent):
        return RatFun(x)
    if isinstance(x, (int, Fraction, RatQ)):
        return RatFun.from_scalar(x)
    return NotImplemented


def rat_sum(terms) -> RatFun:
    """Sum of RatFuns over one common denominator (single reduction)."""
    terms = [t for t in terms if not t.is_zero()]
    if not terms:
        return RatFun.zero()
    if len(terms) == 1:
        return terms[0]
    lcd: dict[BinomialFactor, int] = {}
    for t in terms:
        for f, m in t.den.items():
            if lcd.get(f, 0) < m:
                lcd[f] = m
    total = MultiLaurent.zero()
    for t in terms:
        comp = [(f, m - t.den.get(f, 0)) for f, m in lcd.items()]
        total = total + factor_product(
            [(f, m) for f, m in comp if m > 0], start=t.num
        )
    return RatFun(total, lcd)


def sym_group(f: RatFun, vs) -> RatFun:
    """Sum of all relabelings of f permuting the given variables."""
    from itertools import permutations

    vs = tuple(vs)
    out = []
    for perm in permutations(vs):
        out.append(f.relabel(dict(zip(vs, perm))))
    return rat_sum(out)
