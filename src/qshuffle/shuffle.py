"""Shuffle-algebra model of the positive nilpotent half of a quantum
affine algebra.

An element of multidegree (n_1, ..., n_r) is represented by its
numerator A: a Laurent polynomial in the variables z[c,i] (1 <= i <=
n_c), symmetric within each color.  The underlying rational function is

    V * A / D,

where V is the product of all same-color differences z[c,i] - z[c,j]
(i < j) and D is the canonical denominator returned by
``canonical_denominator``: one binomial per flattened pair of positions.
Under the default "product" orientation the pair (u, v) contributes
(z_u - q^(u,v) z_v), which is the convention compatible with polynomial
numerator extraction for products of generators; the "printed"
orientation uses (q^(u,v) z_u - z_v) instead and generally fails to stay
polynomial, which ``mul`` reports as ``ClosureViolation``.

Multiplication is the correlation-function shuffle formula: sum over
per-color order-preserving interleavings, with the exchange factor
(q^p z_u - z_v)/(z_u - q^p z_v) on inverted mixed pairs.  In the default
orientation that sum times V is a symmetrizer over the cosets of
S_n x S_m in S_(n+m), one per color, so by the parabolic symmetrizer
identity (Macdonald, *Notes on Schubert Polynomials*, 1991; in shuffle
form, Negut, arXiv:1209.3349) the product numerator is a Grassmannian
divided difference of one polynomial: n_c m_c steps (F - s_i F)/(z_i -
z_(i+1)) per color, see ``_mul_polynomial``.  The product never leaves
the polynomial ring and needs no division; an independent
rational-function summation over the interleavings is available as
``mul_oracle_rational`` and can be switched on for every product with
``ShuffleAlgebra(..., oracle=True)``.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from .cartan import CartanData
from .poly import MultiLaurent, VarId, aux_var, grassmannian_steps, zvar
from .qring import LaurentQ, RatQ, q_binomial
from .ratfun import BinomialFactor, RatFun, rat_sum


class ClosureViolation(Exception):
    """A product left the canonical polynomial-numerator form."""


ORIENTATIONS = ("product", "printed")


class ShuffleElement:
    """A multidegree together with its symmetric numerator."""

    __slots__ = ("cartan", "degree", "numerator")

    def __init__(self, cartan: CartanData, degree, numerator: MultiLaurent, check=True):
        degree = tuple(int(n) for n in degree)
        if len(degree) != cartan.rank or any(n < 0 for n in degree):
            raise ValueError("degree must list one count per color")
        allowed = {
            zvar(c + 1, i + 1) for c, n in enumerate(degree) for i in range(n)
        }
        bad = [v for v in numerator.vars if v not in allowed and numerator.exp_range(v) != (0, 0)]
        if bad:
            raise ValueError(f"numerator uses variables outside the degree: {bad}")
        extra = [v for v in numerator.vars if v not in allowed]
        if extra:
            keep = [i for i, v in enumerate(numerator.vars) if v in allowed]
            numerator = MultiLaurent(
                tuple(numerator.vars[i] for i in keep),
                {
                    tuple(e[i] for i in keep): c
                    for e, c in numerator.terms.items()
                },
            )
        numerator = numerator.with_vars(allowed)
        if check:
            for c in range(1, cartan.rank + 1):
                if not numerator.is_symmetric(c):
                    raise ValueError(f"numerator not symmetric in color {c}")
        self.cartan = cartan
        self.degree = degree
        self.numerator = numerator

    @classmethod
    def raw(cls, cartan, degree, numerator) -> ShuffleElement:
        """Skip the symmetry validation (for probing invalid data)."""
        return cls(cartan, degree, numerator, check=False)

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def variables(self) -> tuple[VarId, ...]:
        return self.numerator.vars

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShuffleElement):
            return NotImplemented
        return (
            self.cartan == other.cartan
            and self.degree == other.degree
            and self.numerator == other.numerator
        )

    def __hash__(self):
        return hash((self.degree, self.numerator))

    def __str__(self) -> str:
        return f"deg {self.degree}: {self.numerator}"

    __repr__ = __str__


def parse_word(text: str) -> list[tuple[int, int]]:
    """Parse a current word like ``a1:0 a2:-1`` into (color, mode) pairs."""
    word = []
    for tok in text.split():
        if not tok.startswith("a") or ":" not in tok:
            raise ValueError(f"bad word token {tok!r}; expected a<color>:<mode>")
        head, _, tail = tok.partition(":")
        try:
            color = int(head[1:])
            mode = int(tail)
        except ValueError as exc:
            raise ValueError(f"bad word token {tok!r}") from exc
        if color < 1:
            raise ValueError(f"bad color in token {tok!r}")
        word.append((color, mode))
    return word


def format_word(word) -> str:
    return " ".join(f"a{c}:{m}" for c, m in word)


class ShuffleAlgebra:
    """Shuffle-product operations for a fixed Cartan datum and orientation."""

    def __init__(self, cartan: CartanData, orientation: str = "product", oracle=False):
        if orientation not in ORIENTATIONS:
            raise ValueError(f"orientation must be one of {ORIENTATIONS}")
        self.cartan = cartan
        self.orientation = orientation
        self.oracle = oracle
        self.oracle_checks = 0

    # ---------- basic elements ----------

    def unit(self) -> ShuffleElement:
        return ShuffleElement(
            self.cartan, (0,) * self.cartan.rank, MultiLaurent.constant(1)
        )

    def generator(self, color: int, mode: int) -> ShuffleElement:
        self.cartan._check_index(color)
        degree = tuple(
            1 if c == color else 0 for c in range(1, self.cartan.rank + 1)
        )
        return ShuffleElement(
            self.cartan, degree, MultiLaurent.var_power(zvar(color, 1), mode)
        )

    def flat_vars(self, degree) -> list[VarId]:
        return [
            zvar(c + 1, i + 1)
            for c, n in enumerate(degree)
            for i in range(n)
        ]

    # ---------- canonical rational form ----------

    def canonical_denominator(self, degree) -> dict[BinomialFactor, int]:
        """One binomial per flattened pair, oriented per the convention.

        Returns the canonical factors; under the printed orientation each
        raw factor (q^p z_u - z_v) also contributes a unit q^p, which
        ``to_rational`` folds into the numerator.
        """
        den = {}
        for u, v in combinations(self.flat_vars(degree), 2):
            p = self.cartan.pairing(u.color, v.color)
            if self.orientation == "product":
                f = BinomialFactor(u, v, RatQ.q_power(p))
            else:
                f, _ = BinomialFactor.make(RatQ.q_power(p), u, RatQ.one(), v)
            den[f] = den.get(f, 0) + 1
        return den

    def _den_unit(self, degree) -> RatQ:
        """Product of the units absorbed while canonicalizing the
        denominator (1 in the default orientation)."""
        unit = RatQ.one()
        if self.orientation == "printed":
            for u, v in combinations(self.flat_vars(degree), 2):
                p = self.cartan.pairing(u.color, v.color)
                unit = unit * RatQ.q_power(p)
        return unit

    def vandermonde(self, degree) -> MultiLaurent:
        out = MultiLaurent.constant(1, self.flat_vars(degree))
        for u, v in combinations(self.flat_vars(degree), 2):
            if u.color == v.color:
                out = out.mul_binomial(1, u, -1, v)
        return out

    def to_rational(self, f: ShuffleElement) -> RatFun:
        num = self.vandermonde(f.degree) * f.numerator
        unit = self._den_unit(f.degree)
        if not unit.is_one():
            num = num.scale(RatQ.one() / unit)
        return RatFun(num, self.canonical_denominator(f.degree))

    def to_symmetric_rational(self, f: ShuffleElement) -> RatFun:
        """Image under the twist sending the canonical form to a fully
        symmetric rational function (denominator of plain differences)."""
        r = self.to_rational(f)
        for u, v in combinations(self.flat_vars(f.degree), 2):
            p = self.cartan.pairing(u.color, v.color)
            r = r.mul_factor(BinomialFactor(u, v, RatQ.q_power(p)))
            r = r.div_factor(BinomialFactor(u, v, RatQ.one()))
        return r

    # ---------- the shuffle product ----------

    def _interleavings(self, n, m):
        """Per-color choices of which positions receive the left factor's
        variables; yields (fmap, gmap, fset) with relabel dicts."""
        per_color = [
            combinations(range(1, n[c] + m[c] + 1), n[c]) for c in range(self.cartan.rank)
        ]
        for choice in product(*per_color):
            fmap, gmap = {}, {}
            for c, picks in enumerate(choice, start=1):
                rest = [i for i in range(1, n[c - 1] + m[c - 1] + 1) if i not in picks]
                fmap.update((zvar(c, k), zvar(c, i)) for k, i in enumerate(picks, start=1))
                gmap.update((zvar(c, k), zvar(c, i)) for k, i in enumerate(rest, start=1))
            yield fmap, gmap, frozenset(fmap.values())

    def mul(self, f: ShuffleElement, g: ShuffleElement) -> ShuffleElement:
        if f.cartan != self.cartan or g.cartan != self.cartan:
            raise ValueError("operands belong to a different Cartan datum")
        total = tuple(a + b for a, b in zip(f.degree, g.degree))
        if self.orientation == "product":
            result = self._mul_polynomial(f, g, total)
        else:
            result = self._mul_rational(f, g, total)
        if self.oracle:
            expect = self.mul_oracle_rational(f, g)
            if self.to_rational(result) != expect:
                raise ArithmeticError(
                    "shuffle product disagrees with the direct rational sum"
                )
            self.oracle_checks += 1
        return result

    def _mul_polynomial(self, f, g, total):
        """Default-orientation product by parabolic divided differences.

        With f's variables of color c in slots 1..n_c and g's in slots
        n_c+1..n_c+m_c, the product numerator is

            eps * d_(n,m) [A_f A_g prod_{a in f, b in g} (z_a - q^(a,b) z_b)],

        where d_(n,m) is, per color, the divided difference of the
        Grassmannian permutation moving g's slots past f's (n_c m_c simple
        steps) and eps = (-1)^#{a in f, b in g : color(a) > color(b)}."""
        n, m = f.degree, g.degree
        left = self.flat_vars(n)
        right = [zvar(c + 1, n[c] + k + 1) for c in range(len(m)) for k in range(m[c])]
        gmap = dict(zip(self.flat_vars(m), right))
        num = f.numerator * g.numerator.relabel(gmap)
        for u in left:
            for v in right:
                p = RatQ.q_power(self.cartan.pairing(u.color, v.color))
                num = num.mul_binomial(1, u, -p, v)
        if sum(n[c] * m[b] for c in range(len(n)) for b in range(c)) % 2:
            num = -num
        for c, (nc, mc) in enumerate(zip(n, m), start=1):
            for i in grassmannian_steps(nc, mc):
                num = num.divided_difference(zvar(c, i), zvar(c, i + 1))
        for c in range(1, self.cartan.rank + 1):
            if not num.is_symmetric(c):
                raise ClosureViolation(f"product numerator not symmetric in color {c}")
        return ShuffleElement(self.cartan, total, num, check=False)

    def _mul_rational(self, f, g, total):
        """Orientation-agnostic fallback through rational functions."""
        r = self.mul_oracle_rational(f, g)
        num = r.num
        unit = self._den_unit(total)
        if not unit.is_one():
            num = num.scale(unit)
        a = RatFun(num, r.den)
        for fac, m in self.canonical_denominator(total).items():
            a = a.mul_factor(fac, m)
        flat = self.flat_vars(total)
        for u, v in combinations(flat, 2):
            if u.color == v.color:
                a = a.div_factor(BinomialFactor(u, v, RatQ.one()))
        if not a.is_polynomial():
            raise ClosureViolation(
                "extracted numerator keeps denominator factors "
                f"{[str(x) for x in a.den]}"
            )
        num = a.num
        for c in range(1, self.cartan.rank + 1):
            if not num.is_symmetric(c):
                raise ClosureViolation(f"product numerator not symmetric in color {c}")
        return ShuffleElement(self.cartan, total, num, check=False)

    def mul_oracle_rational(self, f: ShuffleElement, g: ShuffleElement) -> RatFun:
        """Direct rational-function shuffle sum: relabel both factors into
        the combined variables and weight inverted mixed pairs by the
        exchange ratio."""
        total = tuple(a + b for a, b in zip(f.degree, g.degree))
        flat = self.flat_vars(total)
        fr = self.to_rational(f)
        gr = self.to_rational(g)
        parts = []
        for fmap, gmap, fset in self._interleavings(f.degree, g.degree):
            term = fr.relabel(fmap) * gr.relabel(gmap)
            for u, v in combinations(flat, 2):
                if (u in fset) or (v not in fset):
                    continue
                # u from the right factor precedes v from the left: inverted
                p = RatQ.q_power(self.cartan.pairing(u.color, v.color))
                term = term * RatFun(
                    MultiLaurent.var_power(u, 1, p)
                    - MultiLaurent.var_power(v, 1),
                    {BinomialFactor(u, v, p): 1},
                )
            parts.append(term)
        return rat_sum(parts)

    # ---------- words ----------

    def word_image(self, word) -> ShuffleElement:
        """Image of a word in the current modes, multiplied left to right."""
        out = self.unit()
        for color, mode in word:
            out = self.mul(out, self.generator(color, mode))
        return out

    def word_degree(self, word) -> tuple[int, ...]:
        deg = [0] * self.cartan.rank
        for color, mode in word:
            self.cartan._check_index(color)
            deg[color - 1] += 1
        return tuple(deg)

    # ---------- structure checks ----------

    def twisted_symmetry_check(self, f: ShuffleElement) -> bool:
        """Exchange identity of the canonical form: swapping adjacent
        same-color variables multiplies the rational form by
        (z_i - q^(c,c) z_j)/(q^(c,c) z_i - z_j)."""
        r = self.to_rational(f)
        for c in range(1, self.cartan.rank + 1):
            cv = [v for v in self.flat_vars(f.degree) if v.color == c]
            qq = RatQ.q_power(self.cartan.pairing(c, c))
            for i in range(len(cv) - 1):
                u, v = cv[i], cv[i + 1]
                swapped = r.relabel({u: v, v: u})
                lhs = swapped * (
                    MultiLaurent.var_power(u, 1, qq) - MultiLaurent.var_power(v, 1)
                )
                rhs = r * (
                    MultiLaurent.var_power(u, 1) - MultiLaurent.var_power(v, 1, qq)
                )
                if lhs != rhs:
                    return False
        return True

    def wheel_applicable(self, f: ShuffleElement, alpha: int, beta: int) -> bool:
        a = self.cartan.a(alpha, beta)
        chain = 1 - a
        return f.degree[alpha - 1] >= chain and f.degree[beta - 1] >= 1

    def wheel_check(
        self, f: ShuffleElement, alpha: int, beta: int, i_indices=None, j_index=1
    ) -> bool:
        """Vanishing of the numerator along the wheel chain

            z[alpha, i_k] = q_alpha^(-2(k-1)) t,   z[beta, j] = q_alpha^(a) t.

        True when the degree cannot host a wheel (vacuous)."""
        if alpha == beta:
            raise ValueError("wheel check needs two distinct colors")
        a = self.cartan.a(alpha, beta)
        chain = 1 - a
        if not self.wheel_applicable(f, alpha, beta):
            return True
        if i_indices is None:
            i_indices = tuple(range(1, chain + 1))
        i_indices = tuple(i_indices)
        if len(set(i_indices)) != chain:
            raise ValueError(f"need {chain} distinct chain indices")
        for i in i_indices:
            if not 1 <= i <= f.degree[alpha - 1]:
                raise ValueError(f"chain index {i} out of range")
        if not 1 <= j_index <= f.degree[beta - 1]:
            raise ValueError(f"witness index {j_index} out of range")
        d = self.cartan.d(alpha)
        t = aux_var("t")
        out = f.numerator
        for k, i in enumerate(i_indices):
            out = out.substitute(zvar(alpha, i), RatQ.q_power(-2 * d * k), t)
        out = out.substitute(zvar(beta, j_index), RatQ.q_power(d * a), t)
        return out.is_zero()

    def serre_image(self, alpha: int, beta: int, modes, s: int) -> ShuffleElement:
        """The quantum Serre alternator applied to the given modes.

        Sums (-1)^r [N r]_{q_alpha} over insertions of a_beta[s] into the
        symmetrization of a_alpha[modes], N = 1 - a_{alphabeta}."""
        if alpha == beta:
            raise ValueError("Serre relation needs two distinct colors")
        a = self.cartan.a(alpha, beta)
        N = 1 - a
        modes = tuple(int(x) for x in modes)
        if len(modes) != N:
            raise ValueError(f"expected {N} modes for colors ({alpha},{beta})")
        d = self.cartan.d(alpha)
        degree = tuple(
            N if c == alpha else 1 if c == beta else 0
            for c in range(1, self.cartan.rank + 1)
        )
        cache: dict[tuple, MultiLaurent] = {}
        acc = MultiLaurent.zero()
        for r in range(N + 1):
            coeff = RatQ(q_binomial(N, r).stretch(d))
            if r % 2:
                coeff = -coeff
            for perm in permutations(modes):
                word = (
                    [(alpha, x) for x in perm[:r]]
                    + [(beta, s)]
                    + [(alpha, x) for x in perm[r:]]
                )
                key = tuple(word)
                if key not in cache:
                    cache[key] = self.word_image(word).numerator
                acc = acc + cache[key].scale(coeff)
        return ShuffleElement(self.cartan, degree, acc, check=False)
