"""Sparse multivariate Laurent polynomials over Q[q, q^-1], with every
monomial and every q-coefficient packed into one integer.

Variables are ``VarId`` tuples (aux, color, index): either color
variables z[c,i] attached to a root color c (aux ""), or named auxiliary
variables (w, t, ...).  Their tuple order is the variable order: color
variables by (c, i), then auxiliary ones by (name, index).  A
``MultiLaurent`` keeps a registry of its n variables sorted in that
order, and a dict ``terms`` mapping int keys to nonzero ints.  Negative
exponents are allowed everywhere.

The key of the monomial prod z_i^e_i packs its exponents into one F-bit
field per variable, the first variable highest:

    key = sum_i (e_i + 2^(F - 2)) 2^(F (n - i)).

Each polynomial carries its ``F`` and a certified exponent bound ``E`` >=
max |e_i|, kept below 2^(F - 2), so every field lies in (0, 2^(F - 1))
and its top bit, the guard bit, stays 0.  Then int order is tuple order,
multiplying by a monomial adds its key less the key of 1, and ``within``
tests a whole box with two subtractions and two masks per key.  Every
operation moves E: a sum takes the larger bound, a product the sum of
the bounds, a binomial multiply adds 1, a substitution multiplies it by
the number of fields summed, and the others keep it (an exact quotient
lies in its dividend's exponent box).  When E would reach 2^(F - 2), the
keys are repacked at twice the width first, so F is never guessed.  Keys
leave this module only as exponent tuples, read in bulk (``exponents``).

The int V of a monomial packs its whole q-coefficient by Kronecker
substitution q -> 2^K (Kronecker 1882; Harvey, J. Symb. Comp. 2009): the
coefficient sum_s c_s q^s / den is stored as

    V = sum_s c_s 2^(K (s - qlo)),

with integer digits c_s.  Each polynomial carries its ``K``, its lowest
q exponent ``qlo``, one positive integer denominator ``den`` and a
certified ``bound`` b >= max |c_s|, kept below 2^(K - 2).  Then the
balanced base-2^K digits of V are the c_s, so V = 0 proves c = 0, and
since the substitution is a ring homomorphism Z[q] -> Z, adding two
coefficients is one int addition, multiplying by q^s a shift by K s bits
and multiplying two coefficients one int multiplication.

Every operation moves the bound: a sum adds the bounds; a binomial
multiply by (x z_i + y z_j) multiplies it by the sum of the absolute
digits of x and y; a divided difference by 2 ceil(R / 2) for
its longest run R, since a run and its mirror image can meet on one
monomial; a product takes b1 b2 w n, with w the q-digit count and n the
term count of the operand a with fewer terms, and when that would not
fit, b ||a||_1, b the other operand's bound and ||a||_1 the sum of a's
absolute digits (its l1 norm), read in one pass: a monomial of the
product collects at most one coefficient product per term of a, so each
of its digits sums products of a digit of b with distinct digits of a; a
placed sum (below) by the sum of the l1 norms of its weights; a
substitution or orbit fold (``fold_orbits``) by the number of terms that
can meet on one monomial; an exact division by its room, as
``_exact_div_binomial`` takes it.
When the bound would reach 2^(K - 2), the operands are recertified first,
and repacked at a wider K if even that does not fit.  K is never guessed.
The certificate (``_certificate``) reads no digit on its own: with
whole-int masks over each value's digits as K-bit two's complement
fields, it ORs the nonnegative digits of all values together, and the
negative ones c complemented to -c - 1, which gives at least the largest
|digit| and less than twice it.  Only when the certificate does not fit
either are the digits read exactly (``_true_bound``) before a repack,
which reads them anyway, so a certificate up to twice too large never
widens K on its own.
``divided_difference`` learns its longest run R in its loop, so when b 2
(E + 1), which bounds b 2 ceil(R / 2), could reach 2^(K - 2), it reads R
in one pass over the keys first.

Only this module reads or builds packed keys and values.  Scalars enter
as int, Fraction, ``LaurentQ`` or ``RatQ`` and leave as ``LaurentQ``
(``coeff``, ``term_lines``, ``eval_at``); a scalar outside Q[q, q^-1]
raises ``ValueError``, a non-scalar such as a float ``TypeError``.  The
kernel methods ``_mul_binomial``, ``_exact_div_binomial`` and
``_binomial_inverse`` take their q-monomials as (a, s) pairs, a q^s, so
the other modules never build a scalar to pass one; the public methods
take scalars and split each once.

The only division ever needed higher up is by two-variable binomials
z_i - c z_j with c a monomial in q.  ``exact_div_binomial`` runs the sum
g <- f + c g down each substitution line of F: the sums are the
quotient's coefficients, F(z_i = c z_j) = 0 iff every line ends on 0,
and otherwise it raises ``NotDivisible``.  Term by term,
``divided_difference`` computes (F - s F)/(z_i - z_j), which the shuffle
product is built from and which never fails.  Every product is
``_shifted_sum``: the larger operand shifted by each term of the smaller
one, the shifted copies summed.  ``_placed_sum`` runs a whole family of
such products into one dict, sum_(src, W) pi_src(P) W, where pi_src moves
P's fields to new slots; the weights W, built once by ``placements``,
share one frame and carry the sum of their l1 norms (absolute digits),
and the sum's bound is P's bound times that sum.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, compress, count, permutations
from math import factorial, lcm, prod
from operator import add, lshift, or_

from .qring import LaurentQ, _q_monomial, _qterms, coefficient, int_exponent

# bits per q-digit and per key field of a new polynomial; wider packings
# are powers of two
_K_START = 16
_F_START = 16
# the digit widths read in bulk, as memoryview formats of little-endian
# signed ints
_VIEW = {8 * array(t).itemsize: t for t in "qlihb"} if sys.byteorder == "little" else {}


class NotDivisible(ArithmeticError):
    """Raised when an exact polynomial division has a remainder.

    The kernel raises it with the divisor z_vi - a q^s z_vj as the args
    (vi, vj, a, s) and formats them only when the text is read: a caller
    that tries the next factor never pays for it."""

    def __str__(self) -> str:
        if len(self.args) != 4:
            return super().__str__()
        vi, vj, a, s = self.args
        return f"not divisible by {vi} - ({LaurentQ.q_power(s, a)}) {vj}"


class VarId(namedtuple("VarId", "aux color index")):
    """A polynomial variable: z[color, index], or an auxiliary name.

    Auxiliary variables carry color 0 and a nonempty ``aux`` name.  The
    fields are stored as (aux, color, index), so the tuple order is the
    variable order: color variables (aux "") by (color, index), then
    auxiliary ones by (name, index).
    """

    __slots__ = ()

    def __new__(cls, color: int, index: int, aux: str = ""):
        if aux:
            if color != 0:
                raise ValueError("auxiliary variables must have color 0")
        elif color < 1 or index < 1:
            raise ValueError("color and index are 1-based positive")
        return super().__new__(cls, aux, color, index)

    def __getnewargs__(self):
        return (self.color, self.index, self.aux)

    def __str__(self) -> str:
        if self.aux:
            return self.aux if self.index == 1 else f"{self.aux}[{self.index}]"
        return f"z[{self.color},{self.index}]"


def zvar(color: int, index: int) -> VarId:
    return VarId(color, index)


def aux_var(name: str, index: int = 1) -> VarId:
    return VarId(0, index, name)


def _sorted_vars(vs) -> tuple[VarId, ...]:
    return tuple(sorted(set(vs)))


def grassmannian_steps(n: int, m: int) -> list[int]:
    """The simple divided differences d_i, in the order they are applied,
    whose product moves slots n+1..n+m past slots 1..n: d_(n+k-1), ...,
    d_k for k = 1..m, n*m steps in all."""
    return [i for k in range(1, m + 1) for i in range(n + k - 1, k - 1, -1)]


# ---------- packed keys ----------


def _key(exps, F: int) -> int:
    """The key of a z-exponent tuple, every |e| below 2^(F - 2)."""
    key, B = 0, 1 << F - 2
    for e in exps:
        key = key << F | e + B
    return key


def _exponents(keys, F: int, n: int) -> list:
    """The z-exponent tuples of keys of n fields: the fields less 2^(F - 2)
    are the balanced base-2^F digits of the keys less the key of 1, read
    in bulk lowest first, so the reversed digits give each key's fields
    highest first, in reverse key order."""
    if not n:
        return [()] * len(keys)
    one = _bias(F, n) >> 1
    return list(zip(*[iter(_digits([key - one for key in keys], F, n)[::-1])] * n))[::-1]


def _rekeyed(terms: dict, F: int, wide: int, n: int) -> dict:
    """The same terms with their keys in fields of ``wide`` bits."""
    return dict(zip([_key(e, wide) for e in _exponents(terms, F, n)], terms.values()))


@lru_cache(maxsize=1024)
def _mover(F: int, src: tuple, m: int):
    """The function moving field k of a key of len(src) fields to slot
    src[k] of m slots, or dropping it where src[k] is None, with exponent
    0 in every slot it does not fill.  Runs of fields that stay adjacent
    move as one block: a shift and a mask."""
    n, runs, k = len(src), [], 0
    while k < n:
        j = k
        if src[k] is not None:
            while j + 1 < n and src[j + 1] == src[j] + 1:
                j += 1
            runs.append((F * (n - 1 - j), (1 << F * (j - k + 1)) - 1, F * (m - 1 - src[j])))
        k = j + 1
    # the fields no old field fills, each reading exponent 0
    base = sum(1 << F * (m - 1 - s) + F - 2 for s in set(range(m)).difference(src))
    if len(runs) <= 2:
        (a, mask, b), (c, mask2, d) = (runs + [(0, 0, 0)] * 2)[:2]
        return lambda key: (key >> a & mask) << b | (key >> c & mask2) << d | base
    return lambda key: reduce(or_, [(key >> a & mask) << b for a, mask, b in runs], base)


# ---------- packed q-coefficients ----------


def _ints(qts):
    """q-term dicts {s: a} over one positive denominator D: (D, the dicts
    with the int coefficients a D)."""
    den = 1
    for qt in qts:
        for a in qt.values():
            if type(a) is not int:
                den = lcm(den, a.denominator)
    if den == 1:
        return 1, qts
    return den, [{s: int(a * den) for s, a in qt.items()} for qt in qts]


def _pack(qt: dict, lo: int, K: int) -> int:
    """The packed value of int q-terms {s: a}, every s >= lo."""
    V = 0
    for s, a in qt.items():
        V += a << K * (s - lo)
    return V


def _wide(x: int, start: int) -> int:
    """The narrowest width start 2^k whose fields hold x below 2^(width - 2)."""
    while x >> (start - 2):
        start *= 2
    return start


def _encode(qts: dict):
    """(terms, K, qlo, bound, den, F, E) of {z-exponent tuple: q-term
    dict}, no dict empty."""
    if not qts:
        return {}, _K_START, 0, 0, 1, _F_START, 0
    E = max(map(abs, chain.from_iterable(qts)), default=0)
    F = _wide(E, _F_START)
    if len(qts) == 1:  # one monomial, often with one small int digit
        ((exps, qt),) = qts.items()
        if len(qt) == 1:
            ((s, a),) = qt.items()
            if type(a) is int and not abs(a) >> (_K_START - 2):
                return {_key(exps, F): a}, _K_START, s, abs(a), 1, F, E
    den, ints = _ints(list(qts.values()))
    lo = min([min(qt) for qt in ints])
    bound = max([abs(a) for qt in ints for a in qt.values()])
    K = _wide(bound, _K_START)
    return {_key(exps, F): _pack(qt, lo, K) for exps, qt in zip(qts, ints)}, K, lo, bound, den, F, E


def _width(values, K: int) -> int:
    """The number of q-digits the packed values span (values nonempty):
    with every digit below 2^(K - 2) in size, the top digit of V is digit
    bit_length(V) // K."""
    return max(map(int.bit_length, values)) // K + 1


@lru_cache(maxsize=1024)
def _bias(K: int, n: int) -> int:
    """sum_{i < n} 2^(K - 1) 2^(K i).  Adding it to a packed value of n
    digits turns each digit c into c + 2^(K - 1), which is nonnegative and
    below 2^K; then taking it off again bit by bit (xor) leaves c modulo
    2^K in each K-bit field."""
    return ((1 << K * n) - 1) // ((1 << K) - 1) << (K - 1)


def _digits(values, K: int, n: int):
    """The digits of the packed values, n per value, as one flat sequence
    of ints."""
    size = n * K // 8
    bias = _bias(K, n)
    blob = b"".join([((v + bias) ^ bias).to_bytes(size, "little") for v in values])
    if K in _VIEW:
        return memoryview(blob).cast(_VIEW[K])
    step = K // 8
    return [int.from_bytes(blob[i:i + step], "little", signed=True) for i in range(0, len(blob), step)]


def _or_fields(x: int, K: int) -> int:
    """The OR of the K-bit fields of x."""
    fields = x.bit_length() // K + 1
    while fields > 1:
        half = fields + 1 >> 1
        x = x >> K * half | x & (1 << K * half) - 1
        fields = half
    return x


def _certificate(terms: dict, K: int) -> int:
    """At least the largest |digit| of the packed values and below twice
    it, read with whole-int masks, one value at a time: of the value's
    digits as K-bit two's complement fields (``_digits``), the
    nonnegative ones are ORed together, and so are the negative ones c,
    each complemented to -c - 1.  An OR is at least each of its fields
    and below twice the largest."""
    if not terms:
        return 0
    bias, pos, neg = _bias(K, _width(terms.values(), K)), 0, 0
    for V in terms.values():
        u = V + bias ^ bias
        s = u & bias  # the sign bits
        r = s >> K - 1
        t = u ^ (s << 1) - r  # the negative fields complemented
        low = t & s - r
        neg |= low
        pos |= t ^ low
    return max(_or_fields(pos, K), _or_fields(neg, K) + 1)


def _true_bound(terms: dict, K: int) -> int:
    """The largest |digit| of the packed values, read digit by digit."""
    if not terms:
        return 0
    d = _digits(terms.values(), K, _width(terms.values(), K))
    return max(max(d), -min(d))


def _repacked(terms: dict, K: int, wide: int) -> dict:
    """The same terms packed at the wider K ``wide``: the digits fill
    fields of ``wide`` bits, and ``_digits`` is undone."""
    if not terms:
        return {}
    n = _width(terms.values(), K)
    d = _digits(terms.values(), K, n)
    if wide in _VIEW:
        blob = array(_VIEW[wide], d).tobytes()
    else:
        blob = b"".join(x.to_bytes(wide // 8, "little", signed=True) for x in d)
    size = n * wide // 8
    bias = _bias(wide, n)
    return {
        key: (int.from_bytes(blob[i * size:(i + 1) * size], "little") ^ bias) - bias
        for i, key in enumerate(terms)
    }


def _fit(polys, need, K=0):
    """The polynomials in one packing of at least K bits wide enough that
    need(*bounds) stays below 2^(K - 2), and that K.  When the certified
    bounds do not fit, they are recertified (``_certificate``), and when
    that does not fit either, read exactly (``_true_bound``): the
    certificate may be twice the largest digit, and a repack would read
    the digits anyway.  K then doubles until the need fits with a
    quarter of K to spare."""
    K = max(K, *(p.K for p in polys))
    bounds = [p.bound for p in polys]
    if need(*bounds) >> (K - 2):
        bounds = [min(b, _certificate(p.terms, p.K)) for p, b in zip(polys, bounds)]
    if need(*bounds) >> (K - 2):
        bounds = [min(b, _true_bound(p.terms, p.K)) for p, b in zip(polys, bounds)]
        if need(*bounds) >> (K - 2):
            while need(*bounds) >> (K - 2 - K // 4):
                K *= 2
    return [
        MultiLaurent._raw(
            p.vars, p.terms if K == p.K else _repacked(p.terms, p.K, K), K, p.qlo, b, p.den, p.F, p.E
        )
        for p, b in zip(polys, bounds)
    ], K


def _times(terms: dict, M: int, shift: int = 0) -> dict:
    """The values times M 2^shift; the power of two is a shift, which
    costs far less than multiplying by it."""
    if M == 1:
        return {key: V << shift for key, V in terms.items()} if shift else terms
    return {key: V * M << shift for key, V in terms.items()}


def _add_into(out: dict, terms) -> dict:
    """Add (key, packed value) pairs into out, dropping cancelled keys."""
    get = out.get
    for key, V in terms:
        s = get(key, 0) + V
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def _shifted_sum(terms: dict, shifts, out=None) -> dict:
    """sum of X * x^off * terms over the (off, X) pairs, off a key offset,
    added straight into out; without out, the first shift is a fresh
    dict."""
    if out is None:
        if not shifts:
            return {}
        off, X = shifts[0]
        out = {key + off: V * X for key, V in terms.items()}
        shifts = shifts[1:]
    get = out.get
    for off, X in shifts:
        for key, V in terms.items():
            key += off
            s = get(key, 0) + V * X
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _divided(terms: dict, si: int, sj: int, M: int):
    """The terms of the divided difference in the fields at bits si and
    sj (mask M), and the longest run |a - b| met: x^a y^b, a > b, becomes
    the run from x^b y^(a - 1) in steps of x / y."""
    out = {}
    get = out.get
    top = 0
    step = (1 << si) - (1 << sj)
    for key, V in terms.items():
        d = (key >> si & M) - (key >> sj & M)
        if d > 0:
            key += (d - 1 << sj) - (d << si)
        else:
            d, V = -d, -V
            key -= 1 << sj
        if d > top:
            top = d
        for _ in range(d):
            s = get(key, 0) + V
            if s:
                out[key] = s
            else:
                del out[key]
            key += step
    return out, top


def _common(a: MultiLaurent, b: MultiLaurent):
    """The terms of a and b (one registry) in one packing, and that
    packing (K, qlo, bound of a sum, den, F, E)."""
    if not a.terms or not b.terms:
        p = b if not a.terms else a
        return (a.terms, b.terms), (p.K, p.qlo, p.bound, p.den, p.F, p.E)
    if a.F != b.F:
        a, b = a._keyed(0, b.F), b._keyed(0, a.F)
    den = a.den if a.den == b.den else lcm(a.den, b.den)
    ma, mb = den // a.den, den // b.den
    K = a.K
    if b.K != K or (a.bound * ma + b.bound * mb) >> (K - 2):
        (a, b), K = _fit((a, b), lambda x, y: x * ma + y * mb)
    lo = min(a.qlo, b.qlo)
    ta = _times(a.terms, ma, K * (a.qlo - lo))
    tb = _times(b.terms, mb, K * (b.qlo - lo))
    return (ta, tb), (K, lo, a.bound * ma + b.bound * mb, den, a.F, max(a.E, b.E))


def placements(pairs, K: int = 0, F: int = 0) -> tuple:
    """The parts of ``MultiLaurent._placed_sum``: the (src, W) pairs, every
    W nonzero and over one registry, brought to one frame (K, qlo, den, F,
    E) of at least K-bit digits and F-bit fields, each with its key offsets
    and values as (src, W, shifts), and the sum of the W's l1 norms, the
    sums of their absolute digits."""
    ws = [w for _, w in pairs]
    den = lcm(*[w.den for w in ws])
    mults = [den // w.den for w in ws]
    ws, K = _fit(ws, lambda *bounds: max(bounds) * max(mults), K)
    E, lo = 0, ws[0].qlo
    for w in ws:
        F, E, lo = max(F, w.F), max(E, w.E), min(lo, w.qlo)
    one, out, norm = _bias(F, len(ws[0].vars)) >> 1, [], 0
    for (src, _), w, m in zip(pairs, ws, mults):
        terms = _times(w._keyed(0, F).terms, m, K * (w.qlo - lo))
        out.append((src, MultiLaurent._raw(w.vars, terms, K, lo, w.bound * m, den, F, E),
                    [(key - one, X) for key, X in terms.items()]))
        norm += sum(map(abs, _digits(terms.values(), K, _width(terms.values(), K))))
    return tuple(out), norm


class MultiLaurent:
    """A Laurent polynomial in several variables over Q[q, q^-1]."""

    __slots__ = ("vars", "terms", "K", "qlo", "bound", "den", "F", "E")

    def __init__(self, vars=(), terms=None):
        """Build from {z-exponent tuple: scalar}."""
        vs = _sorted_vars(vars)
        qts = {}
        if terms:
            nv = len(vs)
            for exps, c in terms.items():
                exps = tuple(map(int_exponent, exps))
                if len(exps) != nv:
                    raise ValueError("exponent tuple length mismatch")
                qt = _qterms(c)
                if qt:
                    qts[exps] = qt
        self.vars = vs
        self.terms, self.K, self.qlo, self.bound, self.den, self.F, self.E = _encode(qts)

    @classmethod
    def _raw(
        cls, vs: tuple[VarId, ...], terms: dict, K: int, qlo: int, bound: int, den: int, F: int, E: int
    ) -> MultiLaurent:
        """Trusted constructor: values already packed at K from qlo, keys
        in F-bit fields with every exponent at most E in size."""
        self = cls.__new__(cls)
        self.vars, self.terms, self.K, self.qlo, self.bound, self.den = vs, terms, K, qlo, bound, den
        self.F, self.E = F, E
        return self

    def _like(self, vs: tuple[VarId, ...], terms: dict) -> MultiLaurent:
        """Terms in this polynomial's packing, over the registry vs."""
        p = MultiLaurent.__new__(MultiLaurent)
        p.vars, p.terms, p.K, p.qlo, p.bound, p.den = vs, terms, self.K, self.qlo, self.bound, self.den
        p.F, p.E = self.F, self.E
        return p

    def _keyed(self, E: int, F: int = 0) -> MultiLaurent:
        """This polynomial with key fields of at least F bits and wide
        enough for the exponent bound E; E itself is the caller's."""
        wide = max(self.F, F)
        while E >> (wide - 2):
            wide *= 2
        if wide == self.F:
            return self
        terms = _rekeyed(self.terms, self.F, wide, len(self.vars))
        return MultiLaurent._raw(self.vars, terms, self.K, self.qlo, self.bound, self.den, wide, self.E)

    def _room(self, mult: int) -> MultiLaurent:
        """This polynomial, packed wide enough for its bound times mult."""
        if not (self.bound * mult) >> (self.K - 2):
            return self
        return _fit((self,), lambda b: b * mult)[0][0]

    def _laurent(self, V: int) -> LaurentQ:
        """The q-coefficient a packed value of this polynomial stands for."""
        digits = _digits((V,), self.K, _width((V,), self.K))
        return LaurentQ._raw({self.qlo + i: Fraction(c, self.den) for i, c in enumerate(digits) if c})

    # ---------- constructors ----------

    @classmethod
    def zero(cls, vars=()) -> MultiLaurent:
        return cls._raw(_sorted_vars(vars), {}, _K_START, 0, 0, 1, _F_START, 0)

    @classmethod
    def constant(cls, c, vars=()) -> MultiLaurent:
        vs = _sorted_vars(vars)
        qt = _qterms(c)
        return cls._raw(vs, *_encode({(0,) * len(vs): qt} if qt else {}))

    @classmethod
    def var_power(cls, v: VarId, e: int, c=1) -> MultiLaurent:
        e = int_exponent(e)
        qt = _qterms(c)
        return cls._raw((v,), *_encode({(e,): qt} if qt else {}))

    @classmethod
    def monomial(cls, exps: dict, c=1) -> MultiLaurent:
        """Monomial from a {VarId: exponent} dict."""
        vs = _sorted_vars(exps)
        return cls(vs, {tuple(exps[v] for v in vs): c})

    @classmethod
    def binomial_inverse(cls, vi: VarId, vj: VarId, c, n: int, dominant: VarId) -> MultiLaurent:
        """The first n + 1 terms of 1/(z_vi - c z_vj), c a q-monomial, expanded
        where ``dominant`` is the larger variable: sum(c^t z_vi^(-1-t) z_vj^t)
        for vi, -sum(c^(-1-t) z_vj^(-1-t) z_vi^t) for vj, over t <= n."""
        a, s = _q_monomial(c, "binomial scalar")
        return cls._binomial_inverse(vi, vj, a, s, n, dominant)

    @classmethod
    def _binomial_inverse(cls, vi: VarId, vj: VarId, a, s: int, n: int, dominant: VarId) -> MultiLaurent:
        """``binomial_inverse`` for c = a q^s."""
        if vi == vj or dominant not in (vi, vj):
            raise ValueError("binomial inverse needs two distinct variables, one dominant")
        sign, o = 1, 0
        if dominant == vj:  # 1/(z_vi - c z_vj) = -(1/c) / (z_vj - (1/c) z_vi)
            vi, vj, a, s, sign, o = vj, vi, Fraction(1) / a, -s, -1, 1
        vs = _sorted_vars((vi, vj))
        exps = [(-1 - t, t) if vi < vj else (t, -1 - t) for t in range(n + 1)]
        if a in (1, -1):  # unit coefficients, one shifted int each
            a = int(a)
            return cls._q_monomials(vs, {e: (sign * a ** (t + o), s * (t + o)) for t, e in enumerate(exps)})
        qts = {e: {s * (t + o): coefficient(sign * a ** (t + o))} for t, e in enumerate(exps)}
        return cls._raw(vs, *_encode(qts))

    @classmethod
    def _q_monomials(cls, vs: tuple[VarId, ...], terms: dict) -> MultiLaurent:
        """Trusted constructor of sum a q^s z^exps over the items exps: (a, s)
        of terms, over the sorted registry vs, every a a nonzero int: each
        value is one shifted int, so no q-term dict is built or packed."""
        if not terms:
            return cls.zero(vs)
        E = max(map(abs, chain.from_iterable(terms)), default=0)
        bound = max([abs(a) for a, _ in terms.values()])
        K, F, lo = _wide(bound, _K_START), _wide(E, _F_START), min([s for _, s in terms.values()])
        packed = {_key(exps, F): a << K * (s - lo) for exps, (a, s) in terms.items()}
        return cls._raw(vs, packed, K, lo, bound, 1, F, E)

    # ---------- registry helpers ----------

    def with_vars(self, extra) -> MultiLaurent:
        """Extend the registry by the given variables (exponent 0)."""
        if all(map(self.vars.__contains__, extra)):
            return self
        vs = _sorted_vars(self.vars + tuple(extra))
        pos = {v: i for i, v in enumerate(vs)}
        return self._reslot(vs, tuple(pos[v] for v in self.vars))

    def without_vars(self, drop) -> MultiLaurent:
        """Remove variables that no term uses from the registry; ValueError
        if a term has a nonzero exponent in one of them."""
        drop = set(drop)
        n, F = len(self.vars), self.F
        shifts = [F * (n - 1 - i) for i, v in enumerate(self.vars) if v in drop]
        if not shifts:
            return self
        # the dropped fields as a mask, and as they read with exponent 0
        mask = sum(((1 << F) - 1) << s for s in shifts)
        zero = sum(1 << s + F - 2 for s in shifts)
        if any(key & mask != zero for key in self.terms):
            raise ValueError("cannot drop a variable the polynomial uses")
        keep = [v for v in self.vars if v not in drop]
        return self._reslot(tuple(keep), tuple(None if v in drop else keep.index(v) for v in self.vars))

    def _reslot(self, vs: tuple[VarId, ...], src: tuple) -> MultiLaurent:
        """Move the exponent of each old variable k to slot src[k] of the
        registry vs, or drop it where src[k] is None; every other slot
        gets exponent 0."""
        if src == tuple(range(len(vs))):
            return self._like(vs, self.terms)
        move = _mover(self.F, src, len(vs))
        return self._like(vs, {move(key): V for key, V in self.terms.items()})

    def _align(self, other: MultiLaurent):
        if self.vars == other.vars:
            return self, other
        a = self.with_vars(other.vars)
        b = other.with_vars(self.vars)
        return a, b

    # ---------- predicates ----------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def exp_range(self, v: VarId):
        """(min, max) exponent of v over all terms; (0, 0) if absent/zero."""
        if not self.terms:
            return (0, 0)
        if v not in self.vars:
            return (0, 0)
        shift, B = self.F * (len(self.vars) - 1 - self.vars.index(v)), 1 << self.F - 2
        es = [key >> shift & (B << 2) - 1 for key in self.terms]
        return (min(es) - B, max(es) - B)

    def exponents(self) -> list[tuple]:
        """The z-exponent tuples of the stored monomials, in ``terms`` order."""
        return _exponents(self.terms, self.F, len(self.vars))

    def coeff(self, exps) -> LaurentQ:
        """The q-coefficient of the monomial with these variable exponents."""
        exps = tuple(exps)
        # a monomial outside the fields is not stored
        if len(exps) != len(self.vars) or any(abs(e) > self.E for e in exps):
            return LaurentQ()
        V = self.terms.get(_key(exps, self.F))
        return self._laurent(V) if V else LaurentQ()

    def within(self, bounds: dict) -> MultiLaurent:
        """The terms whose exponent of every variable v lies in bounds[v] =
        (lo, hi); q is not tested.  With the bounds clamped to the fields
        and H the guard bits, (key | H) - lo keeps a field's guard bit iff
        e >= lo, and (hi | H) - key iff e <= hi."""
        F, B, lo, hi = self.F, 1 << self.F - 2, 0, 0
        for v in self.vars:
            a, b = bounds[v]
            lo = lo << F | min(max(a, -B), B) + B
            hi = hi << F | min(max(b, -B), B - 1) + B
        H = _bias(F, len(self.vars))
        hi |= H
        return self._like(self.vars, {
            key: V for key, V in self.terms.items() if (key | H) - lo & H == H and hi - key & H == H
        })

    def total_degree_if_homogeneous(self):
        """The common total degree in the variables (q not counted) of all
        terms, or None."""
        degs = set(map(sum, self.exponents()))
        if len(degs) == 1:
            return degs.pop()
        return None

    # ---------- arithmetic ----------

    def __add__(self, other) -> MultiLaurent:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._align(other)
        (ta, tb), frame = _common(a, b)
        return MultiLaurent._raw(a.vars, _add_into(dict(ta), tb.items()), *frame)

    __radd__ = __add__

    def __neg__(self) -> MultiLaurent:
        return self._like(self.vars, {e: -V for e, V in self.terms.items()})

    def __sub__(self, other) -> MultiLaurent:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> MultiLaurent:
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> MultiLaurent:
        if not isinstance(other, MultiLaurent):
            try:
                return self.scale(other)
            except TypeError:
                return NotImplemented
        a, b = self._align(other)
        if len(a.terms) > len(b.terms):  # a is the smaller operand
            a, b = b, a
        if not a.terms:
            return MultiLaurent.zero(a.vars)
        E = a.E + b.E
        a, b = a._keyed(E, b.F), b._keyed(E, a.F)
        # a monomial collects at most one product per term of the smaller
        # operand a, so each digit of the product sums products of a digit
        # of b with distinct digits of a: at most ||a||_1 of them, the sum of
        # a's absolute digits, which is at most its bound times w n, w its
        # digit count; the digits are read only when that does not fit
        w, n = _width(a.terms.values(), a.K), len(a.terms)
        norm = a.bound * w * n
        if (b.bound * norm) >> (max(a.K, b.K) - 2):
            norm = sum(map(abs, _digits(a.terms.values(), a.K, w)))
        K = a.K
        if b.K != K or (b.bound * norm) >> (K - 2):
            (a, b), K = _fit((a, b), lambda x, y: y * norm)
        # a term of a shifts b's keys by its key less the key of 1
        one = _bias(a.F, len(a.vars)) >> 1
        return MultiLaurent._raw(
            a.vars, _shifted_sum(b.terms, [(key - one, V) for key, V in a.terms.items()]), K, a.qlo + b.qlo,
            b.bound * norm, a.den * b.den, a.F, E,
        )

    __rmul__ = __mul__

    def _placed_sum(self, vs: tuple[VarId, ...], parts) -> MultiLaurent:
        """The sum of pi_src(self) * W over the (src, W) pairs of parts =
        (pairs, norm) from ``placements``, in one dict.  pi_src moves field
        k of self to slot src[k] of the registry vs, src a permutation; src
        None means self is over vs already.  Per pair, a monomial collects
        at most one product c X per term X of W, c a coefficient of self,
        and its digits are at most bound ||X||_1, so the sum's bound is
        self.bound * norm.  An operand that needs a wider K or F repacks
        the frame for this call."""
        pairs, norm = parts
        frame = pairs[0][1]
        if not self.terms:
            return MultiLaurent.zero(vs)
        E = self.E + frame.E
        p = self._keyed(E, frame.F)
        F, K = p.F, max(p.K, frame.K)
        if p.K != K or (p.bound * norm) >> (K - 2):
            (p,), K = _fit((p,), lambda b: b * norm, K)
        if (K, F) != (frame.K, frame.F):
            pairs = placements([(src, W) for src, W, _ in pairs], K, F)[0]
        n, out = len(vs), {}
        for src, _, shifts in pairs:
            if src is None:
                moved = p.terms
            else:
                move = _mover(F, src, n)
                moved = {move(key): V for key, V in p.terms.items()}
            _shifted_sum(moved, shifts, out)
        return MultiLaurent._raw(vs, out, K, p.qlo + frame.qlo, p.bound * norm, p.den * frame.den, F, E)

    def scale(self, c) -> MultiLaurent:
        qt = _qterms(c)
        if not qt or not self.terms:
            return MultiLaurent.zero(self.vars)
        den, (qt,) = _ints([qt])
        mult = sum(map(abs, qt.values()))
        p = self._room(mult)
        lo = min(qt)
        return MultiLaurent._raw(
            p.vars, _times(p.terms, _pack(qt, lo, p.K)), p.K, p.qlo + lo, p.bound * mult, p.den * den, p.F, p.E
        )

    def __pow__(self, n: int) -> MultiLaurent:
        if n < 0:
            raise ValueError("negative power of a MultiLaurent")
        out = MultiLaurent.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def var_shift(self, v: VarId, delta: int, c=None) -> MultiLaurent:
        """Multiply by c * v^delta (c defaults to 1)."""
        return self * MultiLaurent.var_power(v, delta, 1 if c is None else c)

    def mul_binomial(self, a, vi: VarId, b, vj: VarId) -> MultiLaurent:
        """Multiply by the binomial (a*z_vi + b*z_vj)."""
        return self._mul_qterms(vi, _qterms(a), vj, _qterms(b))

    def _mul_binomial(self, vi: VarId, x: tuple, vj: VarId, y: tuple) -> MultiLaurent:
        """``mul_binomial`` by two nonzero q-monomials given as (a, s) pairs,
        a q^s."""
        return self._mul_qterms(vi, {x[1]: x[0]}, vj, {y[1]: y[0]})

    def _mul_qterms(self, vi: VarId, x: dict, vj: VarId, y: dict) -> MultiLaurent:
        """Multiply by (x z_vi + y z_vj), the scalars x and y given as
        {q exponent: coefficient}."""
        p = self.with_vars((vi, vj))
        den, (x, y) = _ints((x, y))
        mult = sum(map(abs, x.values())) + sum(map(abs, y.values()))
        if not mult or not p.terms:
            return MultiLaurent.zero(p.vars)
        p = p._room(mult)._keyed(p.E + 1)
        lo, n, K, F = min(chain(x, y)), len(p.vars), p.K, p.F
        # multiplying by z_v adds 1 to the field of v
        shifts = [(1 << F * (n - 1 - p.vars.index(v)), _pack(c, lo, K)) for v, c in ((vi, x), (vj, y)) if c]
        return MultiLaurent._raw(
            p.vars, _shifted_sum(p.terms, shifts), K, p.qlo + lo, p.bound * mult, p.den * den, F, p.E + 1
        )

    # ---------- substitution and relabeling ----------

    def substitute(self, v, c, target: VarId) -> MultiLaurent:
        """Substitute z_v -> c * z_target with c a nonzero q-monomial.

        ``v`` may also be a tuple of variables and ``c`` the tuple of
        their scalars: all of them are substituted in one pass, so the
        exponent of z_target is the sum of theirs and the q shift of a
        term is the dot product of their exponents with the scalars'
        q-exponents."""
        if isinstance(v, VarId):
            v, c = (v,), (c,)
        if len(v) != len(c) or len(set(v)) != len(v):
            raise ValueError("substitute needs distinct variables, one scalar each")
        mono = [_q_monomial(x, "substitution scalar") for x in c]
        pos = {u: i for i, u in enumerate(self.vars)}
        subs = {pos[u]: am for u, am in zip(v, mono) if u in pos}
        if not subs:
            return self.with_vars((target,))
        if target in pos and target not in v:  # its own exponent joins the sum
            subs[pos[target]] = (1, 0)
        vs = _sorted_vars([u for u in self.vars if u not in v] + [target])
        if not self.terms:
            return MultiLaurent.zero(vs)
        E = self.E * len(subs)
        p = self._keyed(E)
        F, n, B = p.F, len(p.vars), 1 << p.F - 2
        # the substituted fields, each read as exponent + B; their sum goes
        # to the field of the target, or of the first of them, the others
        # to exponent 0, and then the keys move to the registry vs
        cols = [[key >> F * (n - 1 - i) & (1 << F) - 1 for key in p.terms] for i in subs]
        acc = pos[target] if target in pos else next(iter(subs))
        # the lowest q shift, and a^e = p^(e - lo) r^(hi - e) p^lo / r^hi
        # for a = p / r: an int factor per term, the constant num / den
        low, scaled = 0, []
        for col, (a, s) in zip(cols, subs.values()):
            if s or a != 1:
                lo, hi = min(col), max(col)
                low += s * (hi if s < 0 else lo)
                if a != 1:
                    scaled.append((col, a.numerator, a.denominator, lo, hi))
        mult = len(p.terms)
        if (p.bound * mult) >> (p.K - 2):
            # the keys meeting on one new key differ in the summed exponents
            # only, and their sum is fixed: all but the widest are free
            widths = sorted(max(col) - min(col) + 1 for col in cols)
            mult = min(mult, prod(widths[:-1]))
        num = den = 1
        if scaled:
            # lo and hi are biased exponents
            const = prod(Fraction(p) ** (lo - B) * Fraction(r) ** (B - hi) for _, p, r, lo, hi in scaled)
            num, den = const.numerator, const.denominator
            mult *= abs(num) * prod(max(abs(p), r) ** (hi - lo) for _, p, r, lo, hi in scaled)
        p = p._room(mult)
        K = p.K
        values = _times(p.terms, num).values()
        for col, a, r, lo, hi in scaled:
            values = [V * a ** (e - lo) * r ** (hi - e) for V, e in zip(values, col)]
        # each term's q shift K (sum_k s_k e_k - low), and its key with the
        # summed fields moved into the field acc
        qs, news = [-K * low] * len(p.terms), list(p.terms)
        for col, (i, (a, s)) in zip(cols, subs.items()):
            if s:
                qs = list(map(add, qs, [K * s * e for e in col]))
            if i != acc:
                w = (1 << F * (n - 1 - acc)) - (1 << F * (n - 1 - i))
                news = list(map(add, news, [(e - B) * w for e in col]))
        out = _add_into({}, zip(news, map(lshift, values, qs)))
        src = tuple(
            vs.index(target) if i == acc else None if i in subs else vs.index(u) for i, u in enumerate(p.vars)
        )
        # low was taken over biased exponents
        qlo = p.qlo + low - B * sum(s for _, s in subs.values())
        return MultiLaurent._raw(p.vars, out, K, qlo, p.bound * mult, p.den * den, F, E)._reslot(vs, src)

    def relabel(self, mapping: dict) -> MultiLaurent:
        """Rename variables by an injective VarId -> VarId mapping."""
        new_of = {v: mapping.get(v, v) for v in self.vars}
        if len(set(new_of.values())) != len(new_of):
            raise ValueError("relabeling must be injective on the registry")
        vs = _sorted_vars(new_of.values())
        pos = {u: i for i, u in enumerate(vs)}
        return self._reslot(vs, tuple(pos[new_of[v]] for v in self.vars))

    # ---------- symmetry ----------

    def symmetrize(self, color: int) -> MultiLaurent:
        """Sum of all k! relabelings permuting the color's variables."""
        cv = [v for v in self.vars if v.color == color]
        total = MultiLaurent.zero(self.vars)
        for perm in permutations(cv):
            total = total + self.relabel(dict(zip(cv, perm)))
        return total

    def is_symmetric(self, color: int) -> bool:
        """Invariance under all adjacent swaps of the color's variables:
        each swap is a bijection on keys, so every swapped key must carry
        the same packed value."""
        n, F, M = len(self.vars), self.F, (1 << self.F) - 1
        slots = [F * (n - 1 - i) for i, v in enumerate(self.vars) if v.color == color]
        terms = self.terms
        get = terms.get
        for si, sj in zip(slots, slots[1:]):
            # the swap adds d (2^si - 2^sj), d the fields' difference, and
            # pairs the keys with d > 0 and d < 0: look up one, count both
            step, balance = (1 << si) - (1 << sj), 0
            for key, V in terms.items():
                d = (key >> sj & M) - (key >> si & M)
                if d > 0:
                    if get(key + d * step) != V:
                        return False
                    balance += 1
                elif d:
                    balance -= 1
            if balance:
                return False
        return True

    def fold_orbits(self, vs) -> MultiLaurent:
        """The terms with the exponents of the variables vs sorted within
        each monomial, added on one key: the sum of each orbit under the
        permutations of vs.  Up to min(terms, |vs|!) terms meet on a key."""
        p = self.with_vars(vs)
        n, F, M = len(p.vars), p.F, (1 << p.F) - 1
        shifts = [F * (n - 1 - i) for i, v in enumerate(p.vars) if v in vs]
        mult = min(len(p.terms), factorial(len(shifts)))
        p = p._room(mult)
        # the fields of vs, biased and so nonnegative, sort as their exponents
        rest = ~sum(M << s for s in shifts)
        return MultiLaurent._raw(p.vars, _add_into({}, (
            (key & rest | reduce(or_, map(lshift, sorted([key >> s & M for s in shifts]), shifts), 0), V)
            for key, V in p.terms.items()
        )), p.K, p.qlo, p.bound * mult, p.den, F, p.E)

    # ---------- division ----------

    def exact_div_binomial(self, vi: VarId, vj: VarId, c) -> MultiLaurent:
        """Exact quotient by (z_vi - c z_vj), c = a q^s a nonzero q-monomial
        (ValueError otherwise); NotDivisible when it is no Laurent polynomial."""
        a, s = _q_monomial(c, "binomial scalar")
        return self._exact_div_binomial(vi, vj, a, s)

    def _exact_div_binomial(self, vi: VarId, vj: VarId, a, s: int) -> MultiLaurent:
        """``exact_div_binomial`` for c = a q^s.

        With x = z_vi and y = z_vj, F is sum_i f_i x^i y^(L - i) on each of
        its lines (one monomial in the other variables, one degree L in x and
        y), and its quotient sum_i g_i x^(i - 1) y^(L - i) has f_i = g_i - c
        g_(i + 1): walked down a line, g <- f_i + c g gives the quotient and
        ends on the remainder.  F(z_vi = c z_vj) sums the remainders times
        distinct monomials, so the binomial divides F iff all are 0."""
        if vi == vj:
            raise ValueError("binomial needs two distinct variables")
        if self.is_zero():
            return self
        f = self.with_vars((vi, vj))
        n, M = len(f.vars), (1 << f.F) - 1
        si, sj = f.F * (n - 1 - f.vars.index(vi)), f.F * (n - 1 - f.vars.index(vj))
        xs, ys = [key >> si & M for key in f.terms], [key >> sj & M for key in f.terms]
        b, top, p, r = min(xs), max(xs) - min(xs), a.numerator, a.denominator
        # the room: a quotient digit sums at most one term per point of its
        # line, each times a^t = p^t / r^t, t < top, over the denominator
        # r^(top - 1), and r times the remainder one power more
        mult = min(top + 1, max(ys) - min(ys) + 1) * max(abs(p), r) ** top
        f = f._room(mult)
        K, lo = f.K, min(0, s * top)  # values at qlo + lo: top shifts by q^s stay exact
        up, down, scale, shift = K * max(s, 0), K * max(-s, 0), r**top, -K * lo
        # a line's key is its point at x^b; x^i y^j steps to x^(i - 1) y^(j + 1)
        step, lines, out = (1 << sj) - (1 << si), {}, {}
        for key, V, x in zip(f.terms, f.terms.values(), xs):
            lines.setdefault(key + (x - b) * step, {})[x - b] = V * scale << shift
        for line, at in lines.items():
            hi, foot, g = max(at), min(at), 0
            key = line - (hi - 1) * step - (1 << sj)  # the quotient's x^(b + hi - 1)
            for i in range(hi, foot, -1):  # the bracket is r times the int (f_i + c g) r^(top - 1)
                g = (at.get(i, 0) + p * (g << up >> down)) // r
                if g:
                    out[key] = g
                key += step
            if at[foot] + p * (g << up >> down):
                raise NotDivisible(vi, vj, a, s)
        return MultiLaurent._raw(f.vars, out, K, f.qlo + lo, f.bound * mult, f.den * r ** (top - 1), f.F, f.E)

    def divided_difference(self, vi: VarId, vj: VarId) -> MultiLaurent:
        """The divided difference (F - s F) / (z_vi - z_vj), s swapping the
        two variables.  Always a Laurent polynomial; computed term by term:
        x^a y^b goes to sign(a - b) (x y)^lo sum_{k < |a - b|} x^k
        y^(|a - b| - 1 - k) with lo = min(a, b), and to 0 when a = b."""
        if vi == vj:
            raise ValueError("divided difference needs two distinct variables")
        f = self.with_vars((vi, vj))
        n, F, M = len(f.vars), f.F, (1 << f.F) - 1
        si, sj = F * (n - 1 - f.vars.index(vi)), F * (n - 1 - f.vars.index(vj))
        if (f.bound * 2 * (f.E + 1)) >> (f.K - 2):
            # the longest run could overflow the digits: read it first
            run = max([abs((key >> si & M) - (key >> sj & M)) for key in f.terms])
            f = f._room(run + (run & 1))
        out, run = _divided(f.terms, si, sj, M)
        # a run and its mirror image can meet on one monomial
        return MultiLaurent._raw(f.vars, out, f.K, f.qlo, f.bound * (run + (run & 1)), f.den, F, f.E)

    # ---------- evaluation ----------

    def eval_at(self, q0: Fraction, assignment: dict) -> Fraction:
        vals = [Fraction(coefficient(assignment[v])) for v in self.vars]
        q0 = Fraction(coefficient(q0))
        total = Fraction(0)
        for exps, V in zip(self.exponents(), self.terms.values()):
            term = self._laurent(V).eval_at(q0)
            for val, e in zip(vals, exps):
                if e:
                    term *= val**e
            total += term
        return total

    # ---------- comparison and display ----------

    def __eq__(self, other) -> bool:
        try:
            other = _as_poly(other)
        except ValueError:  # a scalar outside Q[q, q^-1] is no polynomial
            return False
        if other is NotImplemented:
            return NotImplemented
        (ta, tb), _ = _common(*self._align(other))
        return ta == tb

    def __hash__(self):
        # equal polynomials may differ in registry and packing, and a
        # constant equals its scalar: hash like the LaurentQ of its
        # coefficient, or hash the nonzero (variable, exponent) pairs of
        # each monomial with its LaurentQ
        one = _bias(self.F, len(self.vars)) >> 1
        if all(key == one for key in self.terms):
            return hash(self.coeff((0,) * len(self.vars)))
        return hash(frozenset(
            (tuple((v, e) for v, e in zip(self.vars, exps) if e), self._laurent(V))
            for exps, V in zip(self.exponents(), self.terms.values())
        ))

    def term_lines(self) -> list[str]:
        """Canonical text rendering, one line per (coefficient, monomial).

        Terms come sorted by their z-exponents (key order) and then by the
        power of q, as a stable term list like ``(1) q^0 | z[1,1]^2``.  The
        digits and the exponents of all monomials are read in one pass
        each, and each variable's powers are rendered once per exponent.
        """
        if not self.terms:
            return []
        keys = sorted(self.terms)
        n = _width(self.terms.values(), self.K)
        digits = _digits([self.terms[key] for key in keys], self.K, n)
        powers = [f") q^{self.qlo + i} | " for i in range(n)]
        cols = []
        for name, col in zip(map(str, self.vars), zip(*_exponents(keys, self.F, len(self.vars)))):
            text = {e: f"{name}^{e}" for e in set(col)}
            text[0] = ""
            cols.append(map(text.__getitem__, col))
        monos = [" ".join(filter(None, parts)) or "1" for parts in zip(*cols)] if cols else ["1"] * len(keys)
        if self.den != 1:
            digits = [coefficient(Fraction(c, self.den)) for c in digits]
        return [f"({digits[at]}{powers[at % n]}{monos[at // n]}" for at in compress(count(), digits)]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return "; ".join(self.term_lines())

    def __repr__(self) -> str:
        return f"MultiLaurent[{', '.join(map(str, self.vars))}]({self})"


def _as_poly(x):
    if isinstance(x, MultiLaurent):
        return x
    try:
        return MultiLaurent.constant(x)
    except TypeError:
        return NotImplemented
