"""The tuple kernel: the polynomial kernel as it was before q-coefficients
were packed into integers, kept as the reference the packed kernel in
``qshuffle.poly`` is tested against.

Its ``terms`` map exponent keys (e_1, ..., e_n, e_q) to nonzero rational
coefficients: q is one more exponent slot, the last one, so every power of
q is its own key.  ``expanded``, ``from_packed`` and ``to_packed`` convert
between the two kernels.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from operator import add, ge, itemgetter, le, mul

from qshuffle import poly
from qshuffle.poly import NotDivisible, VarId, _sorted_vars
from qshuffle.qring import LaurentQ, RatQ, _q_monomial, _qterms, coefficient, int_exponent


def _offset(n: int, qe: int, exps=()) -> tuple:
    """The key of q^qe prod z_slot^e over (slot, e) pairs, n variables."""
    key = [0] * n + [qe]
    for slot, e in exps:
        key[slot] += e
    return tuple(key)


def _picker(idx):
    """A function returning the tuple (key[i] for i in idx)."""
    idx = tuple(idx)
    if len(idx) == 1:
        i = idx[0]
        return lambda key: (key[i],)
    return itemgetter(*idx)


def _add_into(out: dict, terms) -> dict:
    """Add (key, coefficient) pairs into out, dropping cancelled keys."""
    get = out.get
    for key, c in terms:
        s = get(key, 0) + c
        if s:
            out[key] = s if type(s) is int else coefficient(s)
        else:
            del out[key]
    return out


def _shifted(terms: dict, off: tuple, a) -> dict:
    """a * x^off * terms for a nonzero rational a: a bijection on keys."""
    if a == 1:
        return {tuple(map(add, key, off)): c for key, c in terms.items()}
    return {
        tuple(map(add, key, off)): p if type(p := c * a) is int else coefficient(p)
        for key, c in terms.items()
    }


def _shifted_sum(terms: dict, shifts) -> dict:
    """sum of a * x^off * terms over the (off, a) pairs: the first shift
    is a fresh dict, every later one is added straight into it."""
    if not shifts:
        return {}
    off, a = shifts[0]
    out = _shifted(terms, off, a)
    get = out.get
    for off, a in shifts[1:]:
        for key, c in terms.items():
            key = tuple(map(add, key, off))
            s = get(key, 0) + c * a
            if s:
                out[key] = s if type(s) is int else coefficient(s)
            else:
                del out[key]
    return out


class MultiLaurent:
    """A Laurent polynomial in several variables over Q[q, q^-1]."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None):
        """Build from {z-exponent tuple: scalar}; each scalar is expanded
        into its q-powers."""
        vs = _sorted_vars(vars)
        clean = {}
        if terms:
            nv = len(vs)
            for exps, c in terms.items():
                exps = tuple(map(int_exponent, exps))
                if len(exps) != nv:
                    raise ValueError("exponent tuple length mismatch")
                _add_into(clean, ((exps + (s,), a) for s, a in _qterms(c).items()))
        self.vars = vs
        self.terms = clean

    @classmethod
    def _raw(cls, vs: tuple[VarId, ...], terms: dict) -> MultiLaurent:
        """Trusted constructor: terms already in the stored key format."""
        self = cls.__new__(cls)
        self.vars = vs
        self.terms = terms
        return self

    # ---------- constructors ----------

    @classmethod
    def zero(cls, vars=()) -> MultiLaurent:
        return cls._raw(_sorted_vars(vars), {})

    @classmethod
    def constant(cls, c, vars=()) -> MultiLaurent:
        vs = _sorted_vars(vars)
        z = (0,) * len(vs)
        return cls._raw(vs, {z + (s,): a for s, a in _qterms(c).items()})

    @classmethod
    def var_power(cls, v: VarId, e: int, c=1) -> MultiLaurent:
        e = int_exponent(e)
        return cls._raw((v,), {(e, s): a for s, a in _qterms(c).items()})

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
        if vi == vj or dominant not in (vi, vj):
            raise ValueError("binomial inverse needs two distinct variables, one dominant")
        a, s = _q_monomial(c, "binomial scalar")
        sign, o = 1, 0
        if dominant == vj:  # 1/(z_vi - c z_vj) = -(1/c) / (z_vj - (1/c) z_vi)
            vi, vj, a, s, sign, o = vj, vi, Fraction(1) / a, -s, -1, 1
        first = vi < vj
        return cls._raw(_sorted_vars((vi, vj)), {
            ((-1 - t, t) if first else (t, -1 - t)) + (s * (t + o),): coefficient(sign * a ** (t + o))
            for t in range(n + 1)
        })

    # ---------- registry helpers ----------

    def with_vars(self, extra) -> MultiLaurent:
        """Extend the registry by the given variables (exponent 0)."""
        vs = _sorted_vars(self.vars + tuple(extra))
        if vs == self.vars:
            return self
        pos = {v: i for i, v in enumerate(vs)}
        return self._reslot(vs, [pos[v] for v in self.vars])

    def without_vars(self, drop) -> MultiLaurent:
        """Remove variables that no term uses from the registry; ValueError
        if a term has a nonzero exponent in one of them."""
        drop = set(drop)
        idx = [i for i, v in enumerate(self.vars) if v in drop]
        if not idx:
            return self
        if any(key[i] for key in self.terms for i in idx):
            raise ValueError("cannot drop a variable the polynomial uses")
        keep = [i for i, v in enumerate(self.vars) if v not in drop]
        pick = _picker(keep + [len(self.vars)])
        return MultiLaurent._raw(
            tuple(self.vars[i] for i in keep),
            {pick(key): c for key, c in self.terms.items()},
        )

    def _reslot(self, vs: tuple[VarId, ...], src) -> MultiLaurent:
        """Move the exponent of each old variable k to slot src[k] of the
        registry vs; every other slot gets exponent 0."""
        n, old = len(vs), len(src)
        # read each new slot from its old slot, or from a 0 appended after q
        idx = [old + 1] * n + [old]
        for k, slot in enumerate(src):
            idx[slot] = k
        pick = _picker(idx)
        if old + 1 in idx:
            terms = {pick(key + (0,)): c for key, c in self.terms.items()}
        else:
            terms = {pick(key): c for key, c in self.terms.items()}
        return MultiLaurent._raw(vs, terms)

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
        i = self.vars.index(v)
        es = [exps[i] for exps in self.terms]
        return (min(es), max(es))

    def coeff(self, exps) -> LaurentQ:
        """The q-coefficient of the monomial with these variable exponents."""
        exps, n = tuple(exps), len(self.vars)
        return LaurentQ({key[n]: c for key, c in self.terms.items() if key[:n] == exps})

    def within(self, bounds: dict) -> MultiLaurent:
        """The terms whose exponent of every variable v lies in bounds[v] =
        (lo, hi); q is not tested."""
        los = [bounds[v][0] for v in self.vars]
        his = [bounds[v][1] for v in self.vars]
        # map stops at the shorter sequence, before the q slot
        return MultiLaurent._raw(self.vars, {
            key: c for key, c in self.terms.items() if all(map(le, los, key)) and all(map(ge, his, key))
        })

    def total_degree_if_homogeneous(self):
        """The common total degree in the variables (q not counted) of all
        terms, or None."""
        degs = {sum(exps) - exps[-1] for exps in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    # ---------- arithmetic ----------

    def __add__(self, other) -> MultiLaurent:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._align(other)
        return MultiLaurent._raw(a.vars, _add_into(dict(a.terms), b.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> MultiLaurent:
        return MultiLaurent._raw(self.vars, {e: -c for e, c in self.terms.items()})

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
        small, big = a.terms, b.terms
        if len(small) > len(big):
            small, big = big, small
        return MultiLaurent._raw(a.vars, _shifted_sum(big, list(small.items())))

    __rmul__ = __mul__

    def scale(self, c) -> MultiLaurent:
        n = len(self.vars)
        shifts = [(_offset(n, s), a) for s, a in _qterms(c).items()]
        return MultiLaurent._raw(self.vars, _shifted_sum(self.terms, shifts))

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
        p = self.with_vars((vi, vj))
        n = len(p.vars)
        shifts = [
            (_offset(n, s, ((p.vars.index(v), 1),)), k)
            for v, c in ((vi, a), (vj, b))
            for s, k in _qterms(c).items()
        ]
        return MultiLaurent._raw(p.vars, _shifted_sum(p.terms, shifts))

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
        n = len(self.vars)
        # the new key reads each kept slot from the old key, the target
        # slot from the appended exponent sum and q from the appended q
        pick = _picker([n + 1 if u == target else pos[u] for u in vs] + [n + 2])
        exponents = _picker(list(subs))
        scales = [Fraction(a) for a, _ in subs.values()]  # powers may be negative
        shifts = [s for _, s in subs.values()]
        plain = all(a == 1 for a in scales)
        out = {}
        get = out.get
        for key, k in self.terms.items():
            es = exponents(key)
            new = pick(key + (sum(es), key[n] + sum(map(mul, es, shifts))))
            if not plain:
                for a, e in zip(scales, es):
                    if e:
                        k = coefficient(k * a**e)
            s = get(new, 0) + k
            if s:
                out[new] = s if type(s) is int else coefficient(s)
            else:
                del out[new]
        return MultiLaurent._raw(vs, out)

    def relabel(self, mapping: dict) -> MultiLaurent:
        """Rename variables by an injective VarId -> VarId mapping."""
        new_of = {v: mapping.get(v, v) for v in self.vars}
        if len(set(new_of.values())) != len(new_of):
            raise ValueError("relabeling must be injective on the registry")
        vs = _sorted_vars(new_of.values())
        pos = {u: i for i, u in enumerate(vs)}
        return self._reslot(vs, [pos[new_of[v]] for v in self.vars])

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
        the same coefficient."""
        slots = [i for i, v in enumerate(self.vars) if v.color == color]
        terms = self.terms
        get = terms.get
        for i, j in zip(slots, slots[1:]):
            idx = list(range(len(self.vars) + 1))
            idx[i], idx[j] = j, i
            pick = _picker(idx)
            for key, c in terms.items():
                if key[i] != key[j] and get(pick(key)) != c:
                    return False
        return True

    def fold_orbits(self, vs) -> MultiLaurent:
        """The terms with the exponents of the variables vs sorted within
        each key, added on one key."""
        p = self.with_vars(vs)
        slots = [i for i, v in enumerate(p.vars) if v in vs]
        out = {}
        for key, c in p.terms.items():
            key = list(key)
            for i, e in zip(slots, sorted(key[i] for i in slots)):
                key[i] = e
            _add_into(out, [(tuple(key), c)])
        return MultiLaurent._raw(p.vars, out)

    # ---------- division ----------

    def exact_div_binomial(self, vi: VarId, vj: VarId, c) -> MultiLaurent:
        """Exact quotient by (z_vi - c z_vj), c = a q^s a nonzero q-monomial
        (ValueError otherwise); NotDivisible when it is no Laurent polynomial.

        The binomial divides F iff F(z_vi = c z_vj) = 0.  Then, with x = z_vi,
        y = z_vj and b the lowest exponent of x, F = sum x^b y^f (x^e - (c y)^e)
        over its terms x^(b + e) y^f, so each term contributes x^b y^f
        sum_{t < e} x^(e - 1 - t) (c y)^t to the quotient."""
        a, s = _q_monomial(c, "binomial scalar")
        if vi == vj:
            raise ValueError("binomial needs two distinct variables")
        if self.is_zero():
            return self
        if self.substitute(vi, c, vj):
            raise NotDivisible(f"not divisible by {vi} - ({c}) {vj}")
        f = self.with_vars((vi, vj))
        n, pi, pj = len(f.vars), f.vars.index(vi), f.vars.index(vj)
        b = min(key[pi] for key in f.terms)
        # the offset of x^(b + e - 1 - t) (c y)^t from x^(b + e), and a^t
        steps = [
            (_offset(n, s * t, ((pi, -1 - t), (pj, t))), a**t)
            for t in range(max(key[pi] for key in f.terms) - b)
        ]
        return MultiLaurent._raw(f.vars, _add_into({}, (
            (tuple(map(add, key, off)), co if a == 1 else coefficient(co * at))
            for key, co in f.terms.items() for off, at in steps[: key[pi] - b]
        )))

    def divided_difference(self, vi: VarId, vj: VarId) -> MultiLaurent:
        """The divided difference (F - s F) / (z_vi - z_vj), s swapping the
        two variables.  Always a Laurent polynomial; computed term by term:
        x^a y^b goes to sign(a - b) (x y)^lo sum_{k < |a - b|} x^k
        y^(|a - b| - 1 - k) with lo = min(a, b), and to 0 when a = b."""
        if vi == vj:
            raise ValueError("divided difference needs two distinct variables")
        f = self.with_vars((vi, vj))
        pi = f.vars.index(vi)
        pj = f.vars.index(vj)
        out = {}
        get = out.get
        for exps, co in f.terms.items():
            a, b = exps[pi], exps[pj]
            if a == b:
                continue
            if a < b:
                a, b, co = b, a, -co
            lst = list(exps)
            for k in range(b, a):
                lst[pi] = k
                lst[pj] = a + b - 1 - k
                key = tuple(lst)
                s = get(key, 0) + co
                if s:
                    out[key] = s if type(s) is int else coefficient(s)
                else:
                    del out[key]
        return MultiLaurent._raw(f.vars, out)

    # ---------- evaluation ----------

    def eval_at(self, q0: Fraction, assignment: dict) -> Fraction:
        vals = [Fraction(coefficient(x)) for x in [assignment[v] for v in self.vars] + [q0]]
        total = Fraction(0)
        for exps, c in self.terms.items():
            prod = Fraction(c)
            for val, e in zip(vals, exps):
                if e:
                    prod *= val**e
            total += prod
        return total

    # ---------- comparison and display ----------

    def __eq__(self, other) -> bool:
        try:
            other = _as_poly(other)
        except ValueError:  # a scalar outside Q[q, q^-1] is no polynomial
            return False
        if other is NotImplemented:
            return NotImplemented
        a, b = self._align(other)
        return a.terms == b.terms

    def __hash__(self):
        # equal polynomials may differ in registry, and a constant equals its
        # scalar: hash like the LaurentQ of its q-terms, or hash the nonzero
        # (variable, exponent) pairs with the q exponent
        if not any(any(key[:-1]) for key in self.terms):
            return hash(self.coeff((0,) * len(self.vars)))
        return hash(frozenset(
            (tuple((v, e) for v, e in zip(self.vars, exps) if e), exps[-1], c)
            for exps, c in self.terms.items()
        ))

    def term_lines(self) -> list[str]:
        """Canonical text rendering, one line per (coefficient, monomial).

        Terms come sorted by their z-exponents and then by the power of q,
        as a stable term list like ``(1) q^0 | z[1,1]^2``.
        """
        names = [str(v) for v in self.vars]
        n = len(names)
        lines = []
        prev = None
        for exps in sorted(self.terms):
            if exps[:n] != prev:  # the q-powers of one monomial are adjacent
                prev = exps[:n]
                mono = " ".join(f"{v}^{e}" for v, e in zip(names, prev) if e) or "1"
            lines.append(f"({self.terms[exps]}) q^{exps[n]} | {mono}")
        return lines

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


def expanded(p) -> dict:
    """The terms of a packed polynomial (or series) with every power of q
    its own key (e_1, ..., e_n, e_q), read through ``exponents`` and
    ``coeff``.  Asserts first that no stored packed value is 0: the kernel
    drops cancelled keys, and ``is_zero``, ``exp_range`` and the term counts
    rely on it."""
    p = getattr(p, "poly", p)  # a series is read through its polynomial
    assert all(p.terms.values()), "a cancelled key is stored"
    return {key + (s,): c for key in p.exponents() for s, c in RatQ.coerce(p.coeff(key)).num.terms.items()}


def from_packed(p) -> MultiLaurent:
    """A packed polynomial as a tuple-kernel one."""
    return MultiLaurent._raw(p.vars, expanded(p))


def to_packed(p: MultiLaurent) -> poly.MultiLaurent:
    """A tuple-kernel polynomial as a packed one."""
    grouped = {}
    for key, c in p.terms.items():
        grouped.setdefault(key[:-1], {})[key[-1]] = c
    return poly.MultiLaurent(p.vars, {key: LaurentQ(qt) for key, qt in grouped.items()})
