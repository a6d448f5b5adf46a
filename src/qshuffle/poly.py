"""Sparse multivariate Laurent polynomials over Q(q).

Variables are ``VarId`` records: either color variables z[c,i] attached
to a root color c, or named auxiliary variables (w, t, ...).  A
``MultiLaurent`` keeps a sorted variable registry and a dict mapping
exponent tuples to nonzero RatQ coefficients.  Negative exponents are
allowed everywhere.

The only division ever needed higher up is by two-variable binomials
z_i - c z_j with c a monomial in q; ``exact_div_binomial`` implements it
by synthetic division and raises ``NotDivisible`` when the quotient does
not exist in the Laurent ring.  The divided difference (F - s F)/(z_i -
z_j), which the shuffle product is built from, never fails and is
computed term by term by ``divided_difference``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .qring import RQ_ONE, RQ_ZERO, RatQ


class NotDivisible(ArithmeticError):
    """Raised when an exact polynomial division has a remainder."""


@dataclass(frozen=True)
class VarId:
    """A polynomial variable: z[color, index], or an auxiliary name.

    Auxiliary variables carry color 0 and a nonempty ``aux`` name; they
    sort after every color variable.
    """

    color: int
    index: int
    aux: str = ""

    def __post_init__(self):
        if self.aux:
            if self.color != 0:
                raise ValueError("auxiliary variables must have color 0")
        else:
            if self.color < 1 or self.index < 1:
                raise ValueError("color and index are 1-based positive")

    def sort_key(self):
        if self.aux:
            return (1, self.aux, self.index)
        return (0, self.color, self.index)

    def __str__(self) -> str:
        if self.aux:
            return self.aux if self.index == 1 else f"{self.aux}[{self.index}]"
        return f"z[{self.color},{self.index}]"


def zvar(color: int, index: int) -> VarId:
    return VarId(color, index)


def aux_var(name: str, index: int = 1) -> VarId:
    return VarId(0, index, name)


def _sorted_vars(vs) -> tuple[VarId, ...]:
    return tuple(sorted(set(vs), key=VarId.sort_key))


def grassmannian_steps(n: int, m: int) -> list[int]:
    """The simple divided differences d_i, in the order they are applied,
    whose product moves slots n+1..n+m past slots 1..n: d_(n+k-1), ...,
    d_k for k = 1..m, n*m steps in all."""
    return [i for k in range(1, m + 1) for i in range(n + k - 1, k - 1, -1)]


class MultiLaurent:
    """A Laurent polynomial in several variables with RatQ coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None):
        vs = _sorted_vars(vars)
        clean = {}
        if terms:
            nv = len(vs)
            for exps, c in terms.items():
                c = RatQ.coerce(c)
                if not c:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != nv:
                    raise ValueError("exponent tuple length mismatch")
                prev = clean.get(exps)
                clean[exps] = c if prev is None else prev + c
                if not clean[exps]:
                    del clean[exps]
        self.vars = vs
        self.terms = clean

    @classmethod
    def _raw(cls, vs: tuple[VarId, ...], terms: dict) -> MultiLaurent:
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
        c = RatQ.coerce(c)
        vs = _sorted_vars(vars)
        if not c:
            return cls._raw(vs, {})
        return cls._raw(vs, {(0,) * len(vs): c})

    @classmethod
    def var_power(cls, v: VarId, e: int, c=1) -> MultiLaurent:
        return cls((v,), {(e,): RatQ.coerce(c)})

    @classmethod
    def monomial(cls, exps: dict, c=1) -> MultiLaurent:
        """Monomial from a {VarId: exponent} dict."""
        vs = _sorted_vars(exps)
        key = tuple(exps[v] for v in vs)
        return cls(vs, {key: RatQ.coerce(c)})

    # ---------- registry helpers ----------

    def with_vars(self, extra) -> MultiLaurent:
        """Extend the registry by the given variables (exponent 0)."""
        vs = _sorted_vars(self.vars + tuple(extra))
        if vs == self.vars:
            return self
        pos = {v: i for i, v in enumerate(vs)}
        return self._reslot(vs, [pos[v] for v in self.vars])

    def _reslot(self, vs: tuple[VarId, ...], src) -> MultiLaurent:
        """Move the exponent of each old variable k to slot src[k] of the
        registry vs; every other slot gets exponent 0."""
        n = len(vs)
        terms = {}
        for exps, c in self.terms.items():
            new = [0] * n
            for slot, e in zip(src, exps):
                new[slot] = e
            terms[tuple(new)] = c
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

    def total_degree_if_homogeneous(self):
        """The common total degree of all terms, or None."""
        degs = {sum(exps) for exps in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    # ---------- arithmetic ----------

    def __add__(self, other) -> MultiLaurent:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._align(other)
        out = dict(a.terms)
        for exps, c in b.terms.items():
            prev = out.get(exps)
            s = c if prev is None else prev + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return MultiLaurent._raw(a.vars, out)

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
        if isinstance(other, (int, Fraction, RatQ)) or not isinstance(
            other, MultiLaurent
        ):
            other = _as_poly(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._align(other)
        ta, tb = a.terms, b.terms
        if len(ta) > len(tb):
            ta, tb = tb, ta
        out = {}
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                prev = out.get(key)
                s = ca * cb if prev is None else prev + ca * cb
                if s:
                    out[key] = s
                else:
                    del out[key]
        return MultiLaurent._raw(a.vars, out)

    __rmul__ = __mul__

    def scale(self, c) -> MultiLaurent:
        c = RatQ.coerce(c)
        if not c:
            return MultiLaurent._raw(self.vars, {})
        return MultiLaurent._raw(
            self.vars, {e: k * c for e, k in self.terms.items()}
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
        p = self if v in self.vars else self.with_vars((v,))
        i = p.vars.index(v)
        out = {}
        for exps, k in p.terms.items():
            key = exps[:i] + (exps[i] + delta,) + exps[i + 1 :]
            out[key] = k if c is None else k * c
        return MultiLaurent._raw(p.vars, out)

    def mul_binomial(self, a, vi: VarId, b, vj: VarId) -> MultiLaurent:
        """Multiply by the binomial (a*z_vi + b*z_vj)."""
        return self.var_shift(vi, 1, RatQ.coerce(a)) + self.var_shift(
            vj, 1, RatQ.coerce(b)
        )

    # ---------- substitution and relabeling ----------

    def substitute(self, v: VarId, c: RatQ, target: VarId) -> MultiLaurent:
        """Substitute z_v -> c * z_target with c an invertible scalar."""
        c = RatQ.coerce(c)
        if not c:
            raise ValueError("substitution scalar must be nonzero")
        if v not in self.vars:
            return self.with_vars((target,))
        vs = _sorted_vars([u for u in self.vars if u != v] + [target])
        pos = {u: i for i, u in enumerate(vs)}
        src = [
            pos[u if u != v else target] for u in self.vars
        ]  # slot in the new tuple receiving each old exponent
        iv = self.vars.index(v)
        n = len(vs)
        out = {}
        powers = {}  # c ** e, once per distinct exponent of v
        for exps, k in self.terms.items():
            new = [0] * n
            for slot, e in zip(src, exps):
                new[slot] += e
            key = tuple(new)
            e = exps[iv]
            ce = powers.get(e)
            if ce is None:
                ce = powers[e] = c ** e
            add = k * ce
            prev = out.get(key)
            s = add if prev is None else prev + add
            if s:
                out[key] = s
            else:
                del out[key]
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

    def color_vars(self, color: int) -> tuple[VarId, ...]:
        return tuple(v for v in self.vars if not v.aux and v.color == color)

    def symmetrize(self, color: int) -> MultiLaurent:
        """Sum of all k! relabelings permuting the color's variables."""
        cv = self.color_vars(color)
        total = MultiLaurent.zero(self.vars)
        for perm in permutations(cv):
            total = total + self.relabel(dict(zip(cv, perm)))
        return total

    def is_symmetric(self, color: int) -> bool:
        """Invariance under all adjacent swaps of the color's variables."""
        cv = self.color_vars(color)
        for k in range(len(cv) - 1):
            swap = {cv[k]: cv[k + 1], cv[k + 1]: cv[k]}
            if self.relabel(swap) != self:
                return False
        return True

    # ---------- division ----------

    def exact_div_binomial(self, vi: VarId, vj: VarId, c: RatQ) -> MultiLaurent:
        """Exact quotient by (z_vi - c * z_vj); NotDivisible on failure."""
        c = RatQ.coerce(c)
        if not c:
            raise ValueError("binomial scalar must be nonzero")
        if vi == vj:
            raise ValueError("binomial needs two distinct variables")
        if self.is_zero():
            return self
        f = self.with_vars((vi, vj))
        pi = f.vars.index(vi)
        pj = f.vars.index(vj)
        layers = {}
        for exps, k in f.terms.items():
            layers.setdefault(exps[pi], {})[exps] = k
        kmax = max(layers)
        kmin = min(layers)
        quot = {}
        # f = h (z_i - c z_j): peel h layer by layer from the top
        carry = {}  # h at the current layer, keyed by full exponent tuples
        for k in range(kmax, kmin - 1, -1):
            nxt = {}
            for exps, co in layers.get(k, {}).items():
                key = exps[:pi] + (exps[pi] - 1,) + exps[pi + 1 :]
                nxt[key] = nxt.get(key, RQ_ZERO) + co
            for exps, co in carry.items():
                # c * z_j * h_k contributes one layer down
                lst = list(exps)
                lst[pi] -= 1
                lst[pj] += 1
                key = tuple(lst)
                nxt[key] = nxt.get(key, RQ_ZERO) + co * c
            carry = {e: co for e, co in nxt.items() if co}
            if k > kmin:
                quot.update(carry)
        if carry:
            raise NotDivisible(f"not divisible by {vi} - ({c}) {vj}")
        return MultiLaurent._raw(f.vars, quot)

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
                prev = out.get(key)
                s = co if prev is None else prev + co
                if s:
                    out[key] = s
                else:
                    del out[key]
        return MultiLaurent._raw(f.vars, out)

    # ---------- evaluation ----------

    def eval_at(self, q0: Fraction, assignment: dict) -> Fraction:
        total = Fraction(0)
        vals = [assignment[v] for v in self.vars]
        for exps, c in self.terms.items():
            prod = c.eval_at(q0)
            for val, e in zip(vals, exps):
                if e:
                    prod *= Fraction(val) ** e
            total += prod
        return total

    # ---------- comparison and display ----------

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._align(other)
        return a.terms == b.terms

    def __hash__(self):
        # equal polynomials may differ in registry, and a constant equals its
        # scalar: hash the scalar, or the nonzero (variable, exponent) pairs
        if not any(map(any, self.terms)):
            return hash(next(iter(self.terms.values()), RQ_ZERO))
        return hash(frozenset(
            (tuple((v, e) for v, e in zip(self.vars, exps) if e), c)
            for exps, c in self.terms.items()
        ))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def term_lines(self) -> list[str]:
        """Canonical text rendering, one line per (coefficient, monomial).

        Laurent coefficients are flattened to one line per q-power so the
        output is a stable term list like ``(1) q^0 | z[1,1]^2``.
        """
        lines = []
        for exps, c in self.sorted_terms():
            mono = " ".join(
                f"{v}^{e}" for v, e in zip(self.vars, exps) if e
            ) or "1"
            if c.is_laurent():
                for qe in sorted(c.num.terms):
                    lines.append(f"({c.num.terms[qe]}) q^{qe} | {mono}")
            else:
                lines.append(f"({c}) | {mono}")
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
    if isinstance(x, (int, Fraction, RatQ)):
        return MultiLaurent.constant(x)
    try:
        return MultiLaurent.constant(RatQ.coerce(x))
    except TypeError:
        return NotImplemented
