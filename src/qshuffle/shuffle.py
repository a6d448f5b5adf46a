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
polynomial, which ``mul`` reports as ``ClosureViolation``: its product is
read off the oracle sum N / lcd, with D cancelled against lcd and the
same-color differences by count and one reduction of what is left.

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
``ShuffleAlgebra(..., oracle=True)``.  The oracle check sums the
interleaving terms over their common denominator lcd without reducing
anything, and compares the sum N / lcd with V A / D by cross-multiplying
over the lcm of lcd and D, so it divides nothing either.  A
printed-orientation product is read off that same sum, built once, so
there the check verifies the read-off and not the sum.

Everything in a product that depends only on the two degrees is built
once per algebra, in a ``Plan`` keyed by the ordered pair (n, m) and kept
as long as the algebra, like the canonical forms.  A plan holds
structure, never operand values: the product's registry and the slots of
f's and g's variables in it, and plan polynomials, each certified once
(``poly.placements``) and run by one ``MultiLaurent._placed_sum`` call.
The product half is the sign times the cross binomials, X, with the
divided-difference steps.  The oracle half has, per interleaving, the
slot map from the identity placement to its own and the weight W = unit
times the exchange binomials times the cofactor against the lcd; then
the lcd, and the check's two polynomials from ``cancel_common(lcd, D)``.
The oracle half is built from the interleavings and the canonical
denominators alone, never from the product half.  A product runs its
plan with kernel calls only: (A_f A_g) X placed, then the steps; the
oracle sum is (V_f A_f)(V_g A_g), formed once, placed at every
interleaving by its weight in one call; the check is N D_rest == A
L_rest V / unit.
"""

from __future__ import annotations

from itertools import combinations, product

from .cartan import CartanData
from .poly import MultiLaurent, VarId, aux_var, grassmannian_steps, placements, zvar
from .qring import RQ_ONE, RatQ, int_exponent, q_binomial
from .ratfun import (
    BinomialFactor,
    RatFun,
    cancel_common,
    cofactor,
    den_lcm,
    factor_product,
    fractions_equal,
    relabel_fraction,
)


class ClosureViolation(Exception):
    """A product left the canonical polynomial-numerator form."""


ORIENTATIONS = ("product", "printed")


class ShuffleElement:
    """A multidegree together with its symmetric numerator."""

    __slots__ = ("cartan", "degree", "numerator")

    def __init__(self, cartan: CartanData, degree, numerator: MultiLaurent, check=True):
        degree = tuple(int_exponent(n, "count") for n in degree)
        if len(degree) != cartan.rank or any(n < 0 for n in degree):
            raise ValueError("degree must list one count per color")
        allowed = {
            zvar(c + 1, i + 1) for c, n in enumerate(degree) for i in range(n)
        }
        extra = [v for v in numerator.vars if v not in allowed]
        bad = [v for v in extra if numerator.exp_range(v) != (0, 0)]
        if bad:
            raise ValueError(f"numerator uses variables outside the degree: {bad}")
        numerator = numerator.without_vars(extra).with_vars(allowed)
        if check:
            for c in range(1, cartan.rank + 1):
                if not numerator.is_symmetric(c):
                    raise ValueError(f"numerator not symmetric in color {c}")
        self.cartan = cartan
        self.degree = degree
        self.numerator = numerator

    @classmethod
    def _over(cls, cartan, degree: tuple, numerator: MultiLaurent) -> ShuffleElement:
        """Trusted constructor: ``degree`` a tuple of counts and
        ``numerator.vars`` already the degree's flattened variables."""
        self = cls.__new__(cls)
        self.cartan, self.degree, self.numerator = cartan, degree, numerator
        return self

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


class Plan:
    """The structure of the product of one ordered pair of degrees (n, m),
    never an operand value: the product's degree ``total``, its registry
    ``vars``, the slots ``fslots`` and ``gslots`` of f's and g's
    variables in it (f's variables of each color first, the identity
    placement), and two halves, each built when a product first needs it.

    ``product``, for ``_mul_polynomial``, is (cross, steps): the plan
    polynomial X = eps prod (z_a - q^(a,b) z_b) over a in f and b in g, as
    the parts of ``MultiLaurent._placed_sum``, and the divided-difference
    steps.  ``oracle``, for ``_oracle_fraction`` and the check, is
    (weights, lcd, check): per interleaving, the slot map from the
    identity placement to its own (None for the identity) and its weight
    W = unit prod exchange cofactor(lcd, den), as ``_placed_sum`` parts;
    the lcd; and the check's two plan polynomials, prod D_rest (None when
    it is 1) and prod L_rest V / unit, where (L_rest, D_rest) is
    ``cancel_common(lcd, D)`` against the product's canonical denominator
    D."""

    __slots__ = ("total", "vars", "fslots", "gslots", "product", "oracle")

    def __init__(self, total: tuple, vs: tuple, fslots: tuple, gslots: tuple):
        self.total, self.vars, self.fslots, self.gslots = total, vs, fslots, gslots
        self.product, self.oracle = None, None


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
        self._forms: dict[tuple, tuple] = {}
        # one plan per ordered pair of degrees, kept as long as the forms
        self._plans: dict[tuple, Plan] = {}
        # (a,b) for every pair of colors: q^(a,b) is the scalar of every
        # exchange factor, handed to the kernel as an exponent
        pairs = product(range(1, cartan.rank + 1), repeat=2)
        self._pairing = {(a, b): cartan.pairing(a, b) for a, b in pairs}

    # ---------- basic elements ----------

    def unit(self) -> ShuffleElement:
        return ShuffleElement._over(self.cartan, (0,) * self.cartan.rank, MultiLaurent.constant(1))

    def generator(self, color: int, mode: int) -> ShuffleElement:
        self.cartan._check_index(color)
        degree = tuple(1 if c == color else 0 for c in range(1, self.cartan.rank + 1))
        # one variable, z[color,1]: the degree's registry, and symmetric
        return ShuffleElement._over(self.cartan, degree, MultiLaurent.var_power(zvar(color, 1), mode))

    def _own(self, *elements):
        """ValueError unless every element has this algebra's Cartan datum,
        whose pairing the caller is about to use."""
        if any(el.cartan != self.cartan for el in elements):
            raise ValueError("operands belong to a different Cartan datum")

    def flat_vars(self, degree) -> list[VarId]:
        return [
            zvar(c + 1, i + 1)
            for c, n in enumerate(degree)
            for i in range(n)
        ]

    # ---------- canonical rational form ----------

    def _form(self, degree) -> tuple[dict[BinomialFactor, int], MultiLaurent, RatQ]:
        """(canonical denominator, Vandermonde, unit) of a degree, computed
        once per algebra; the unit is the product of the q^p absorbed while
        canonicalizing the printed orientation's raw factors (q^p z_u - z_v),
        1 in the default orientation."""
        degree = tuple(degree)
        form = self._forms.get(degree)
        if form is None:
            flat = self.flat_vars(degree)
            den, vand, shift = {}, MultiLaurent.constant(1, flat), 0
            for u, v in combinations(flat, 2):
                p = self._pairing[u.color, v.color]
                if self.orientation == "product":
                    f = BinomialFactor.from_parts(u, v, p)
                else:  # q^p z_u - z_v = q^p (z_u - q^-p z_v)
                    f = BinomialFactor.from_parts(u, v, -p)
                    shift += p
                den[f] = den.get(f, 0) + 1
                if u.color == v.color:
                    vand = vand._mul_binomial(u, (1, 0), v, (-1, 0))
            form = self._forms[degree] = (den, vand, RatQ.q_power(shift))
        return form

    def canonical_denominator(self, degree) -> dict[BinomialFactor, int]:
        """One binomial per flattened pair, oriented per the convention;
        the printed orientation's units q^p go into the numerator."""
        return dict(self._form(degree)[0])

    def vandermonde(self, degree) -> MultiLaurent:
        return self._form(degree)[1]

    def _canonical_numerator(self, f: ShuffleElement) -> MultiLaurent:
        """V * A / unit: the numerator of f over its canonical denominator,
        unreduced."""
        _, vand, unit = self._form(f.degree)
        num = vand * f.numerator
        if not unit.is_one():
            num = num.scale(RatQ.one() / unit)
        return num

    def to_rational(self, f: ShuffleElement) -> RatFun:
        self._own(f)
        return RatFun(self._canonical_numerator(f), self._form(f.degree)[0])

    def to_symmetric_rational(self, f: ShuffleElement) -> RatFun:
        """Image under the twist sending the canonical form to a fully
        symmetric rational function (denominator of plain differences):
        the canonical form times (z_u - q^(u,v) z_v) / (z_u - z_v) for
        every flattened pair, built as one fraction."""
        num, den = self._canonical_numerator(f), dict(self._form(f.degree)[0])
        for u, v in combinations(self.flat_vars(f.degree), 2):
            num = num._mul_binomial(u, (1, 0), v, (-1, self._pairing[u.color, v.color]))
            plain = BinomialFactor.from_parts(u, v, 0)
            den[plain] = den.get(plain, 0) + 1
        return RatFun(num, den)

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

    def _plan(self, n, m, oracle: bool) -> Plan:
        """The plan of degrees (n, m), with the halves this product needs
        built: the product half in the default orientation, the oracle
        half when ``oracle``."""
        plan = self._plans.get((n, m))
        if plan is None:
            total = tuple(a + b for a, b in zip(n, m))
            start = [sum(total[:c]) for c in range(len(total))]
            # f's z[c,k] goes to slot k of color c, g's z[c,k] to slot n_c + k
            fslots = tuple(start[v.color - 1] + v.index - 1 for v in self.flat_vars(n))
            gslots = tuple(start[v.color - 1] + n[v.color - 1] + v.index - 1 for v in self.flat_vars(m))
            plan = self._plans[n, m] = Plan(total, tuple(self.flat_vars(total)), fslots, gslots)
        if plan.product is None and self.orientation == "product":
            plan.product = self._product_plan(n, m)
        if plan.oracle is None and oracle:
            plan.oracle = self._oracle_plan(n, m)
        return plan

    def _product_plan(self, n, m) -> tuple:
        """The product half of the plan of degrees (n, m)."""
        plan = self._plans[n, m]
        vs = plan.vars
        odd = sum(n[c] * m[b] for c in range(len(n)) for b in range(c)) % 2 == 1
        cross = MultiLaurent.constant(-1 if odd else 1, vs)
        for u in (vs[i] for i in plan.fslots):
            for v in (vs[i] for i in plan.gslots):
                cross = cross._mul_binomial(u, (1, 0), v, (-1, self._pairing[u.color, v.color]))
        steps = [
            (zvar(c, i), zvar(c, i + 1))
            for c, (nc, mc) in enumerate(zip(n, m), start=1)
            for i in grassmannian_steps(nc, mc)
        ]
        return placements([(None, cross)]), steps

    def _oracle_plan(self, n, m) -> tuple:
        """The oracle half of the plan of degrees (n, m), from the
        interleavings and the canonical denominators alone: per
        interleaving the slot map and the weight, the unit that the
        relabelled canonical denominators and the canonical forms' own
        units absorb times the exchange binomials and the cofactor against
        the lcd; the lcd; and the check's two polynomials."""
        plan = self._plans[n, m]
        vs, total = plan.vars, plan.total
        pos = {v: i for i, v in enumerate(vs)}
        identity = tuple(range(len(vs)))
        (fden, _, fu), (gden, _, gu) = self._form(n), self._form(m)
        base = RQ_ONE / (fu * gu)
        parts = []
        for fmap, gmap, fset in self._interleavings(n, m):
            den, unit = {}, base
            for canon, mapping in ((fden, fmap), (gden, gmap)):
                for fac, mult in canon.items():
                    nf, u = fac.relabel(mapping)
                    den[nf] = den.get(nf, 0) + mult
                    if not u.is_one():
                        unit = unit / u**mult
            weight = MultiLaurent.constant(unit, vs)
            for u, v in combinations(vs, 2):
                if (u in fset) or (v not in fset):
                    continue
                # u from the right factor precedes v from the left: inverted
                p = self._pairing[u.color, v.color]
                weight = weight._mul_binomial(u, (1, p), v, (-1, 0))
                fac = BinomialFactor.from_parts(u, v, p)
                den[fac] = den.get(fac, 0) + 1
            # the identity placement's slot i goes to slot src[i]
            src = [0] * len(vs)
            for d, slots, mp in ((n, plan.fslots, fmap), (m, plan.gslots, gmap)):
                for i, x in zip(slots, self.flat_vars(d)):
                    src[i] = pos[mp[x]]
            parts.append((None if tuple(src) == identity else tuple(src), weight, den))
        lcd = den_lcm(den for *_, den in parts)
        weights = placements([(src, factor_product(cofactor(lcd, den), start=w)) for src, w, den in parts])
        canon, vand, unit = self._form(total)
        lcd_rest, den_rest = cancel_common(lcd, canon)
        # D_rest is most often 1, and then the check skips its product
        lhs = factor_product(den_rest, start=MultiLaurent.constant(1, vs))
        rhs = factor_product(lcd_rest, start=vand.scale(RQ_ONE / unit))
        check = (placements([(None, lhs)]) if den_rest else None, placements([(None, rhs)]))
        return weights, lcd, check

    def mul(self, f: ShuffleElement, g: ShuffleElement) -> ShuffleElement:
        self._own(f, g)
        # one oracle sum per product: the printed product is read off it
        summed = self.oracle or self.orientation == "printed"
        plan = self._plan(f.degree, g.degree, summed)
        oracle = self._oracle_fraction(f, g, plan) if summed else None
        if self.orientation == "product":
            result = self._mul_polynomial(f, g, plan)
        else:
            result = self._mul_rational(oracle, plan.total)
        if self.oracle:
            # N / lcd == V A / (unit D), cross-multiplied over the lcm of
            # lcd and D: N D_rest == A L_rest V / unit, no division
            den_rest, lcd_rest = plan.oracle[2]
            vs, num = plan.vars, oracle[0]
            if den_rest is not None:
                num = num._placed_sum(vs, den_rest)
            if num != result.numerator._placed_sum(vs, lcd_rest):
                raise ArithmeticError(
                    "shuffle product disagrees with the direct rational sum"
                )
            self.oracle_checks += 1
        return result

    def _mul_polynomial(self, f, g, plan: Plan):
        """Default-orientation product by parabolic divided differences.

        With f's variables of color c in slots 1..n_c and g's in slots
        n_c+1..n_c+m_c, the product numerator is

            eps * d_(n,m) [A_f A_g prod_{a in f, b in g} (z_a - q^(a,b) z_b)],

        where d_(n,m) is, per color, the divided difference of the
        Grassmannian permutation moving g's slots past f's (n_c m_c simple
        steps) and eps = (-1)^#{a in f, b in g : color(a) > color(b)}.
        The plan's product half holds eps times the cross binomials as one
        polynomial, and the steps."""
        cross, steps = plan.product
        vs = plan.vars
        num = f.numerator._reslot(vs, plan.fslots) * g.numerator._reslot(vs, plan.gslots)
        num = num._placed_sum(vs, cross)
        for vi, vj in steps:
            num = num.divided_difference(vi, vj)
        for c in range(1, self.cartan.rank + 1):
            if not num.is_symmetric(c):
                raise ClosureViolation(f"product numerator not symmetric in color {c}")
        return ShuffleElement._over(self.cartan, plan.total, num)

    def _mul_rational(self, oracle, total):
        """Orientation-agnostic product A = N unit D / (lcd V) from the
        oracle sum (N, lcd).  D cancels against lcd and V's same-color
        differences by count, the rest of the denominator is reduced once
        (a surviving factor is a ClosureViolation), and the D factors that
        did not cancel are multiplied in last."""
        num, den = oracle[0], dict(oracle[1])
        canon, _, unit = self._form(total)
        for u, v in combinations(self.flat_vars(total), 2):
            if u.color == v.color:
                plain = BinomialFactor.from_parts(u, v, 0)
                den[plain] = den.get(plain, 0) + 1
        extra, den = cancel_common(canon, den)
        r = RatFun(num.scale(unit), den)
        if not r.is_polynomial():
            raise ClosureViolation(
                "extracted numerator keeps denominator factors "
                f"{[str(x) for x in sorted(r.den)]}"
            )
        num = factor_product(extra, start=r.num)
        for c in range(1, self.cartan.rank + 1):
            if not num.is_symmetric(c):
                raise ClosureViolation(f"product numerator not symmetric in color {c}")
        return ShuffleElement._over(self.cartan, total, num)

    def mul_oracle_rational(self, f: ShuffleElement, g: ShuffleElement) -> RatFun:
        """Direct rational-function shuffle sum: relabel both factors into
        the combined variables, weight inverted mixed pairs by the exchange
        ratio, and reduce the sum once."""
        self._own(f, g)
        return RatFun(*self._oracle_fraction(f, g, self._plan(f.degree, g.degree, True)))

    def _oracle_fraction(self, f: ShuffleElement, g: ShuffleElement, plan: Plan):
        """The interleaving sum of ``mul_oracle_rational`` as (N, lcd), N
        over the product of the lcd factors, with no reduction; lcd is the
        plan's own dict, which callers only read.

        Each term is the product of the relabelled canonical forms V A / D
        of f and g and, per inverted mixed pair (u from g before v from f),
        of (q^p z_u - z_v) / (z_u - q^p z_v); the terms are summed over the
        lcm of their denominators.  The plan holds everything but A: the
        product (V_f A_f)(V_g A_g) is formed once in the identity
        placement, and one ``_placed_sum`` moves it to each interleaving's
        slots and multiplies it by that interleaving's weight."""
        weights, lcd, _ = plan.oracle
        vs = plan.vars
        a = (self._form(f.degree)[1] * f.numerator)._reslot(vs, plan.fslots)
        b = (self._form(g.degree)[1] * g.numerator)._reslot(vs, plan.gslots)
        return (a * b)._placed_sum(vs, weights), lcd

    # ---------- words ----------

    def word_image(self, word) -> ShuffleElement:
        """Image of a word in the current modes, multiplied left to right
        from its first generator; the empty word's image is the unit."""
        out = None
        for color, mode in word:
            g = self.generator(color, mode)
            out = g if out is None else self.mul(out, g)
        return self.unit() if out is None else out

    def word_degree(self, word) -> tuple[int, ...]:
        deg = [0] * self.cartan.rank
        for color, mode in word:
            self.cartan._check_index(color)
            deg[color - 1] += 1
        return tuple(deg)

    # ---------- structure checks ----------

    def twisted_symmetry_check(self, f: ShuffleElement) -> bool:
        """Exchange identity of the canonical form r: swapping adjacent
        same-color variables u, v gives s(r) (q^(c,c) z_u - z_v) = r (z_u -
        q^(c,c) z_v) in the product orientation and s(r) (z_u - q^(c,c)
        z_v) = r (q^(c,c) z_u - z_v) in the printed one.  Both sides are
        compared unreduced, by cross-multiplying."""
        self._own(f)
        num, den = self._canonical_numerator(f), self._form(f.degree)[0]
        for c in range(1, self.cartan.rank + 1):
            cv = [v for v in self.flat_vars(f.degree) if v.color == c]
            qq = self._pairing[c, c]
            a, b = (qq, 0) if self.orientation == "product" else (0, qq)
            for u, v in zip(cv, cv[1:]):
                snum, sden = relabel_fraction(num, den, {u: v, v: u})
                lhs = (snum._mul_binomial(u, (1, a), v, (-1, b)), sden)
                if not fractions_equal(lhs, (num._mul_binomial(u, (1, b), v, (-1, a)), den)):
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
        self._own(f)
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
        # one substitution pass for the whole chain
        wheel = tuple(zvar(alpha, i) for i in i_indices) + (zvar(beta, j_index),)
        scalars = tuple(RatQ.q_power(-2 * d * k) for k in range(chain)) + (RatQ.q_power(d * a),)
        return f.numerator.substitute(wheel, scalars, aux_var("t")).is_zero()

    def serre_image(self, alpha: int, beta: int, modes, s: int) -> ShuffleElement:
        """The quantum Serre alternator applied to the given modes.

        Sums (-1)^r [N r]_{q_alpha} over insertions of a_beta[s] into the
        symmetrization of a_alpha[modes], N = 1 - a_{alphabeta}: the word
        a_alpha[m_t(1)] ... a_alpha[m_t(r)] a_beta[s] a_alpha[m_t(r+1)] ...
        for every r and every permutation t of the modes.

        The product is linear in its left factor, so the words are summed
        as prefixes, in the style of Horner's rule: the prefixes that hold
        the same multiset of alpha modes, with beta not yet placed or
        placed, are added up before the next generator is multiplied on.
        A prefix with r alpha letters takes beta with weight (-1)^r [N r];
        a mode still to be placed k times is appended with weight k, one
        for each of its copies.  A one-letter prefix is its generator, so
        no product with the unit is made."""
        if alpha == beta:
            raise ValueError("Serre relation needs two distinct colors")
        a = self.cartan.a(alpha, beta)
        N = 1 - a
        modes = tuple(int_exponent(x) for x in modes)
        if len(modes) != N:
            raise ValueError(f"expected {N} modes for colors ({alpha},{beta})")
        d = self.cartan.d(alpha)
        gens = {x: self.generator(alpha, x) for x in modes}
        b = self.generator(beta, s)

        def add(layer, rest, prefix, g, weight):
            # prefix * g * weight into layer[rest]; None is the empty prefix
            g = g if prefix is None else self.mul(prefix, g)
            num = g.numerator.scale(weight)
            if rest in layer:
                num = layer[rest].numerator + num
            layer[rest] = ShuffleElement._over(self.cartan, g.degree, num)

        def appended(layer):
            out = {}
            for rest, prefix in layer.items():
                for x in sorted(set(rest)):
                    i = rest.index(x)
                    add(out, rest[:i] + rest[i + 1 :], prefix, gens[x], rest.count(x))
            return out

        # prefixes by the alpha modes they still have to take, before beta
        # and after it
        before, placed = {tuple(sorted(modes)): None}, {}
        for r in range(N + 1):
            weight = RatQ(q_binomial(N, r).stretch(d))
            for rest, prefix in before.items():
                add(placed, rest, prefix, b, -weight if r % 2 else weight)
            if r < N:
                before, placed = appended(before), appended(placed)
        return placed[()]
