"""One scalar, many types; one coefficient format, no floats.

The constant 1 and the monomial q can be written as an int or Fraction
(1 only), a ``LaurentQ``, a ``RatQ``, a constant ``MultiLaurent`` and a
constant ``RatFun``: all of them must be equal in both directions and
hash alike.  Every stored coefficient is an int or a Fraction, a
``LaurentQ`` keeps its integral coefficients as ints, and a float is
refused with ``TypeError`` wherever a scalar enters.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from qshuffle.poly import MultiLaurent, zvar
from qshuffle.qring import LaurentQ, RatQ, q_binomial
from qshuffle.ratfun import BinomialFactor, RatFun

from helpers import random_laurent, random_ratq
from tuple_kernel import expanded

Z1, Z2 = zvar(1, 1), zvar(1, 2)


def forms(lq: LaurentQ) -> list:
    return [lq, RatQ(lq), MultiLaurent.constant(lq), RatFun.from_scalar(lq)]


@pytest.mark.parametrize(
    "values",
    [[1, Fraction(1)] + forms(LaurentQ.one()), forms(LaurentQ.q_power(1))],
    ids=["one", "q"],
)
def test_scalar_forms_agree(values):
    for a, b in combinations(values, 2):
        assert a == b and b == a, (type(a).__name__, type(b).__name__)
        assert hash(a) == hash(b), (type(a).__name__, type(b).__name__)


def test_ratfun_takes_laurent_scalars():
    q = LaurentQ.q_power(1)
    r = RatFun(MultiLaurent.var_power(Z1, 1), {BinomialFactor(Z1, Z2, RatQ(q)): 1})
    rq = RatQ(q)
    assert r * q == r * rq == q * r
    assert r + q == r + rq == q + r
    assert r - q == r - rq
    assert q - r == rq - r
    assert r / q == r / rq
    assert (r * q) / q == r
    with pytest.raises(ValueError):  # 1/(q + 1) lies outside Q[q, q^-1]
        r / LaurentQ({1: 1, 0: 1})


def laurent_pool(rng) -> list:
    """LaurentQs from every producer: the constructor, + - * ** exact_div
    gcd bar stretch, q_binomial and RatQ canonicalisation and division."""
    pool = [random_laurent(rng, nonzero=True) for _ in range(12)]
    pool += [q_binomial(n, p) for n in range(7) for p in range(n + 1)]
    for _ in range(40):
        a, b = rng.choice(pool), rng.choice([x for x in pool if x])
        pool += [a + b, a - b, a * b, a**2, (a * b).exact_div(b), a.bar(), a.stretch(rng.choice((-2, 3)))]
        pool.append(LaurentQ.gcd(a * b, b * b))
        pool.append(LaurentQ({0: Fraction(1, 2)}) + LaurentQ({0: Fraction(1, 2)}))
    for _ in range(20):
        r, s = random_ratq(rng, nonzero=True), random_ratq(rng, nonzero=True)
        for x in (r, r / s, r * s, r + s, s.inverse(), RatQ(r.num * 2, r.den * 2)):
            pool += [x.num, x.den]
    return pool


def test_every_coefficient_is_int_or_fraction():
    rng = random.Random(2025)
    pool = laurent_pool(rng)
    for lq in pool:
        for c in lq.terms.values():
            assert type(c) in (int, Fraction), lq
            assert type(c) is int or c.denominator != 1, lq
    polys = [MultiLaurent.constant(lq, [Z1]).mul_binomial(lq, Z1, Fraction(1, 3), Z2) for lq in pool[:30]]
    polys += [p.scale(RatQ(rng.choice(pool))) for p in polys[:10]]
    polys += [p.substitute(Z1, RatQ.q_power(1, Fraction(2, 3)), Z2) for p in polys[:10]]
    polys += [MultiLaurent([Z1], {(1,): Fraction(4, 2), (2,): 3})]
    # halves that multiply or add up to integers
    half = MultiLaurent.var_power(Z1, 1, Fraction(1, 2))
    polys += [half * MultiLaurent.var_power(Z2, 1, 2), half + half, half.scale(2)]
    halves = MultiLaurent([Z1, Z2], {(2, 0): Fraction(1, 2), (0, 2): Fraction(-1, 2)})
    polys += [halves.divided_difference(Z1, Z2)]
    polys += [(half + MultiLaurent.var_power(Z2, 1, Fraction(1, 2))).substitute(Z1, 1, Z2)]
    for p in polys:
        for c in expanded(p).values():
            assert type(c) in (int, Fraction), p
            assert type(c) is int or c.denominator != 1, p
        assert all(type(c) is int or c.denominator != 1 for c in p.coeff((0, 0)).terms.values())


LQ = LaurentQ({1: 1, 0: 2})
POLY = MultiLaurent.var_power(Z1, 1) + MultiLaurent.var_power(Z2, 1)
RAT = RatFun(POLY, {BinomialFactor(Z1, Z2, RatQ.q_power(2)): 1})
FLOAT_ENTRIES = {
    "LaurentQ()": lambda: LaurentQ({0: 1.5}),
    "LaurentQ +": lambda: LQ + 1.5,
    "LaurentQ *": lambda: LQ * 1.5,
    "LaurentQ.exact_div": lambda: LQ.exact_div(1.5),
    "LaurentQ.eval_at": lambda: LQ.eval_at(0.5),
    "RatQ()": lambda: RatQ(1.5),
    "RatQ() den": lambda: RatQ(LQ, 1.5),
    "RatQ /": lambda: RatQ(LQ) / 1.5,
    "MultiLaurent()": lambda: MultiLaurent([Z1], {(1,): 1.5}),
    "MultiLaurent.constant": lambda: MultiLaurent.constant(1.5),
    "MultiLaurent.var_power": lambda: MultiLaurent.var_power(Z1, 1, 1.5),
    "MultiLaurent.scale": lambda: POLY.scale(1.5),
    "MultiLaurent *": lambda: POLY * 1.5,
    "MultiLaurent +": lambda: POLY + 1.5,
    "MultiLaurent.var_shift": lambda: POLY.var_shift(Z1, 1, 1.5),
    "MultiLaurent.mul_binomial": lambda: POLY.mul_binomial(1.5, Z1, 1, Z2),
    "MultiLaurent.substitute": lambda: POLY.substitute(Z1, 1.5, Z2),
    "MultiLaurent.exact_div_binomial": lambda: POLY.exact_div_binomial(Z1, Z2, 1.5),
    "MultiLaurent.eval_at": lambda: POLY.eval_at(0.5, {Z1: 1, Z2: 2}),
    "RatFun.from_scalar": lambda: RatFun.from_scalar(1.5),
    "RatFun *": lambda: RAT * 1.5,
    "RatFun +": lambda: RAT + 1.5,
    "RatFun /": lambda: RAT / 1.5,
}


@pytest.mark.parametrize("entry", FLOAT_ENTRIES)
def test_floats_are_refused(entry):
    with pytest.raises(TypeError):
        FLOAT_ENTRIES[entry]()
