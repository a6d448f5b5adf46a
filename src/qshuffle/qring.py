"""Exact arithmetic in the quantum parameter.

Two coefficient rings are provided:

* ``LaurentQ`` -- Laurent polynomials in q with rational coefficients,
  stored sparsely as {exponent: coefficient}.  This is the ring where all
  q-integers, q-factorials and q-binomial coefficients live.
* ``RatQ`` -- the fraction field, kept in a canonical num/den form so
  that equality is plain structural equality.

The package's one coefficient format is defined here: a rational number
stored as an ``int`` when integral, as a ``Fraction`` otherwise, and
normalised only by ``coefficient``, which refuses floats (``TypeError``).
``LaurentQ`` terms are kept in it; ``poly`` packs them into integers.
The q-monomial decomposition c = a q^s of a scalar (``_q_monomial``) is
here too, for ``poly`` and ``ratfun``.  Dividing by a q-monomial is
exponent arithmetic: a one-term ``RatQ`` denominator a q^s shifts the
numerator by -s and divides it by a; only a denominator of two or more
terms takes the polynomial gcd.  ``ratfun`` stores a binomial factor
z_i - a q^s z_j as the tuple (i, j, s, a), whose order is the factor
order.

Everything is immutable in spirit: operations return new objects and no
method mutates ``self``.  All arithmetic is exact; there is no floating
point anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def coefficient(c):
    """c in the stored coefficient format: an int, or a Fraction that is
    not integral; TypeError unless c is an int or a Fraction."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


def int_exponent(e, what="exponent") -> int:
    """e as an exponent: ValueError unless an int (1.5 must not become 1)."""
    if type(e) is int:
        return e
    raise ValueError(f"{what} {e!r} is not an integer")


def _power(base, n: int, one):
    """base^n for n >= 0 by square-and-multiply, one the unit of base's
    ring: the loop every ``__pow__`` of the library runs."""
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


_ONE_TERMS = {0: 1}


class LaurentQ:
    """A Laurent polynomial in q over the rationals.

    Terms are held in a dict mapping integer exponents to nonzero
    coefficients; the zero polynomial has an empty dict.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = coefficient(c)
                if c:
                    clean[int_exponent(e)] = c
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> LaurentQ:
        """Trusted constructor for int exponents and nonzero values; integral Fractions become ints."""
        self = cls.__new__(cls)
        self.terms = {e: c if type(c) is int else coefficient(c) for e, c in terms.items()}
        return self

    # ---------- constructors ----------

    @classmethod
    def zero(cls) -> LaurentQ:
        return cls()

    @classmethod
    def one(cls) -> LaurentQ:
        return cls({0: 1})

    @classmethod
    def q_power(cls, e: int, c=1) -> LaurentQ:
        """The monomial c*q^e."""
        return cls({e: c})

    # ---------- predicates ----------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_one(self) -> bool:
        # RatQ keeps every denominator equal to one as the shared LQ_ONE
        return self is LQ_ONE or self.terms == _ONE_TERMS

    def coeff(self, e: int):
        return self.terms.get(e, 0)

    # ---------- ring operations ----------

    def __add__(self, other) -> LaurentQ:
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentQ._raw(out)

    __radd__ = __add__

    def __neg__(self) -> LaurentQ:
        return LaurentQ._raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> LaurentQ:
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> LaurentQ:
        return -self + other

    def __mul__(self, other) -> LaurentQ:
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentQ._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentQ:
        if n < 0:
            raise ValueError("negative power of a LaurentQ; use RatQ")
        return _power(self, n, LaurentQ.one())

    # ---------- q-symmetries ----------

    def bar(self) -> LaurentQ:
        """The bar involution q -> q^-1."""
        return LaurentQ._raw({-e: c for e, c in self.terms.items()})

    def stretch(self, d: int) -> LaurentQ:
        """Substitute q -> q^d for a nonzero integer d."""
        if int_exponent(d, "stretch") == 0:
            raise ValueError("stretch by 0 is not invertible")
        return LaurentQ._raw({d * e: c for e, c in self.terms.items()})

    def eval_at(self, q0: Fraction) -> Fraction:
        """Evaluate at a nonzero rational point."""
        q0 = Fraction(coefficient(q0))
        if q0 == 0 and self.terms and min(self.terms) < 0:
            raise ZeroDivisionError("evaluation at q=0 hits a pole")
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * q0**e
        return total

    # ---------- division ----------

    def _shifted_coeffs(self):
        """Return (list of Fractions ascending from exponent 0, shift)."""
        if not self.terms:
            return [], 0
        lo, hi = min(self.terms), max(self.terms)
        return [Fraction(self.terms.get(e, 0)) for e in range(lo, hi + 1)], lo

    def exact_div(self, other: LaurentQ) -> LaurentQ:
        """Exact quotient self/other; raises ArithmeticError on remainder."""
        if not isinstance(other, LaurentQ):
            other = LaurentQ({0: other})
        if other.is_zero():
            raise ZeroDivisionError("division by zero LaurentQ")
        if self.is_zero():
            return LaurentQ.zero()
        fa, sa = self._shifted_coeffs()
        fb, sb = other._shifted_coeffs()
        quo, rem = _poly_divmod(fa, fb)
        if any(rem):
            raise ArithmeticError("LaurentQ division left a remainder")
        return LaurentQ._raw({i + sa - sb: c for i, c in enumerate(quo) if c})

    @staticmethod
    def gcd(a: LaurentQ, b: LaurentQ) -> LaurentQ:
        """Monic gcd in Q[q] after clearing q-power units."""
        fa, _ = a._shifted_coeffs()
        fb, _ = b._shifted_coeffs()
        return LaurentQ._raw({i: c for i, c in enumerate(_poly_gcd(fa, fb)) if c})

    # ---------- comparisons, hashing, display ----------

    def __eq__(self, other) -> bool:
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its Fraction, so it must hash like one
        t = self.terms
        if not t or len(t) == 1 and 0 in t:
            return hash(t.get(0, 0))
        return hash(frozenset(t.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            sign = "-" if c < 0 else "+"
            c = abs(c)
            if e == 0:
                body = str(c)
            else:
                qs = "q" if e == 1 else f"q^{e}"
                body = qs if c == 1 else f"{c} {qs}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"LaurentQ({self})"


def _as_laurent(x):
    if isinstance(x, LaurentQ):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentQ({0: x})
    return NotImplemented


def _trimmed(coeffs) -> list:
    """A coefficient list (ascending degree) without its trailing zeros."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _poly_divmod(num, den):
    """Long division of Fraction coefficient lists (ascending degree)."""
    num, den = _trimmed(num), _trimmed(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if len(num) < len(den):
        return [], num
    quo = [Fraction(0)] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(quo) - 1, -1, -1):
        c = num[k + len(den) - 1] / lead
        quo[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return quo, _trimmed(num)


def _poly_gcd(a, b):
    """Monic gcd of Fraction coefficient lists; [1] when coprime."""
    a, b = _trimmed(a), _trimmed(b)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


# module-level constants used throughout the package
LQ_ZERO = LaurentQ.zero()
LQ_ONE = LaurentQ.one()


class RatQ:
    """An element of the field Q(q) in canonical form.

    The canonical representative divides out the polynomial gcd of
    numerator and denominator (after clearing q-power units), puts the
    whole q-power shift on the numerator, and scales the denominator to
    be monic with lowest exponent zero.  Consequently ``den`` is exactly
    ``1`` whenever the element is itself a Laurent polynomial, and
    structural equality of (num, den) pairs decides equality in Q(q).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, RatQ) or isinstance(den, RatQ):  # num / den in Q(q)
            r = RatQ.coerce(num) if den is None else RatQ.coerce(num) / RatQ.coerce(den)
            self.num, self.den = r.num, r.den
            return
        num = _as_laurent(num)
        den = LQ_ONE if den is None else _as_laurent(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RatQ components must be LaurentQ-coercible")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in RatQ")
        if num.is_zero():
            self.num = LQ_ZERO
            self.den = LQ_ONE
            return
        if len(den.terms) == 1:  # den = c q^s: shift by -s, divide by c
            ((s, c),) = den.terms.items()
            if s or c != 1:
                num = LaurentQ._raw({e - s: Fraction(a, c) for e, a in num.terms.items()})
            self.num = num
            self.den = LQ_ONE
            return
        fn, sn = num._shifted_coeffs()
        fd, sd = den._shifted_coeffs()
        g = _poly_gcd(fn, fd)
        if len(g) > 1:
            fn, _ = _poly_divmod(fn, g)
            fd, _ = _poly_divmod(fd, g)
        lead = fd[-1]
        shift = sn - sd
        self.num = LaurentQ({i + shift: c / lead for i, c in enumerate(fn) if c})
        self.den = LaurentQ({i: c / lead for i, c in enumerate(fd) if c})

    @classmethod
    def _raw(cls, num: LaurentQ, den: LaurentQ) -> RatQ:
        """Trusted constructor: caller guarantees canonical form."""
        self = cls.__new__(cls)
        self.num = num
        self.den = den
        return self

    # ---------- constructors ----------

    @classmethod
    def zero(cls) -> RatQ:
        return cls._raw(LQ_ZERO, LQ_ONE)

    @classmethod
    def one(cls) -> RatQ:
        return cls._raw(LQ_ONE, LQ_ONE)

    @classmethod
    def q_power(cls, e: int, c=1) -> RatQ:
        return cls(LaurentQ.q_power(e, c))

    @classmethod
    def coerce(cls, x) -> RatQ:
        if isinstance(x, RatQ):
            return x
        y = _as_laurent(x)
        if y is NotImplemented:
            raise TypeError(f"cannot coerce {type(x).__name__} to RatQ")
        return cls._raw(y, LQ_ONE) if not y.is_zero() else cls.zero()

    # ---------- predicates ----------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    # ---------- field operations ----------

    def __add__(self, other) -> RatQ:
        try:
            other = RatQ.coerce(other)
        except TypeError:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            s = self.num + other.num
            return RatQ._raw(s, LQ_ONE) if s else RatQ.zero()
        return RatQ(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> RatQ:
        return RatQ._raw(-self.num, self.den)

    def __sub__(self, other) -> RatQ:
        try:
            other = RatQ.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> RatQ:
        return RatQ.coerce(other) + (-self)

    def __mul__(self, other) -> RatQ:
        try:
            other = RatQ.coerce(other)
        except TypeError:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            p = self.num * other.num
            return RatQ._raw(p, LQ_ONE) if p else RatQ.zero()
        return RatQ(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> RatQ:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(q)")
        return RatQ(self.den, self.num)

    def __truediv__(self, other) -> RatQ:
        try:
            other = RatQ.coerce(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> RatQ:
        return RatQ.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> RatQ:
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, RatQ.one())

    # ---------- q-symmetries ----------

    def bar(self) -> RatQ:
        return RatQ(self.num.bar(), self.den.bar())

    def stretch(self, d: int) -> RatQ:
        return RatQ(self.num.stretch(d), self.den.stretch(d))

    def eval_at(self, q0: Fraction) -> Fraction:
        d = self.den.eval_at(q0)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={q0}")
        return self.num.eval_at(q0) / d

    # ---------- comparisons, hashing, display ----------

    def __eq__(self, other) -> bool:
        try:
            other = RatQ.coerce(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # the canonical den is monic with lowest exponent 0, so a one-term
        # den is 1 and the value equals (and hashes like) its numerator
        if len(self.den.terms) == 1:
            return hash(self.num)
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatQ({self})"


RQ_ONE = RatQ.one()


# ---------- scalars in Q[q, q^-1] ----------


def _qterms(c) -> dict:
    """The scalar c as {q exponent: coefficient}, shared with c when c is
    Laurent: callers only read it.

    ValueError when c lies outside Q[q, q^-1]; TypeError when it is no
    scalar at all."""
    if isinstance(c, RatQ):
        if not c.den.is_one():
            raise ValueError(f"scalar {c} lies outside Q[q, q^-1]")
        c = c.num
    if isinstance(c, LaurentQ):
        return c.terms
    c = coefficient(c)
    return {0: c} if c else {}


def _q_monomial(c, what="scalar") -> tuple:
    """The nonzero q-monomial c = a q^s as the pair (a, s)."""
    qt = _qterms(c)
    if len(qt) != 1:
        raise ValueError(f"{what} must be a nonzero q-monomial")
    ((s, a),) = qt.items()
    return a, s


# ---------- q-combinatorics ----------


def q_int(n: int) -> LaurentQ:
    """The symmetric q-integer [n]_q = q^(n-1) + q^(n-3) + ... + q^(1-n).

    Equivalently (q^n - q^-n)/(q - q^-1); [0]_q = 0.
    """
    if n < 0:
        raise ValueError("q_int requires n >= 0")
    return LaurentQ({n - 1 - 2 * j: 1 for j in range(n)})


def q_factorial(n: int) -> LaurentQ:
    """[n]!_q = [1]_q [2]_q ... [n]_q, with [0]!_q = 1."""
    if n < 0:
        raise ValueError("q_factorial requires n >= 0")
    out = LQ_ONE
    for k in range(2, n + 1):
        out = out * q_int(k)
    return out


def q_binomial(n: int, p: int) -> LaurentQ:
    """The Gaussian binomial [n]!_q / ([p]!_q [n-p]!_q).

    Always a Laurent polynomial, invariant under q -> q^-1, and equal to
    the ordinary binomial coefficient at q = 1.  Read off the row of n,
    built once; every call returns a new ``LaurentQ``.
    """
    if n < 0:
        raise ValueError("q_binomial requires n >= 0")
    if p < 0 or p > n:
        return LaurentQ()
    return LaurentQ._raw(dict(_q_binomial_row(n)[p]))


@lru_cache(maxsize=32)
def _q_binomial_row(n: int) -> tuple:
    """[n p] for p = 0..n, each as a tuple of (exponent, coefficient)
    pairs, by the Pascal rule [k p] = q^-p [k-1 p] + q^(k-p) [k-1 p-1].
    All coefficients are positive, so no term cancels."""
    row = [{0: 1}]
    for k in range(1, n + 1):
        new = []
        for p in range(k + 1):
            out = {}
            for shift, part in ((-p, row[p] if p < k else {}), (k - p, row[p - 1] if p else {})):
                for e, c in part.items():
                    out[e + shift] = out.get(e + shift, 0) + c
            new.append(out)
        row = new
    return tuple(tuple(sorted(qt.items())) for qt in row)
