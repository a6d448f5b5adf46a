import random
from fractions import Fraction

import pytest

from qshuffle.poly import MultiLaurent, VarId, zvar
from qshuffle.qring import LaurentQ, RatQ
from qshuffle.ratfun import BinomialFactor, RatFun, factor_product, rat_sum, sym_group

from helpers import random_fraction, random_q_monomial, random_q_point

Z1 = zvar(1, 1)
Z2 = zvar(1, 2)
Z3 = zvar(1, 3)


def qp(e, c=1):
    return RatQ.q_power(e, c)


def V(v, e=1, c=1):
    return MultiLaurent.var_power(v, e, c)


def test_factor_takes_every_scalar_type():
    # the scalar is coerced to RatQ before the checks, as in make and RatFun
    for scalar, want in [
        (LaurentQ.q_power(2), qp(2)),
        (1, RatQ.one()),
        (Fraction(1, 2), qp(0, Fraction(1, 2))),
        (qp(-1, 3), qp(-1, 3)),
    ]:
        f, g = BinomialFactor(Z1, Z2, scalar), BinomialFactor(Z1, Z2, want)
        assert f == g and hash(f) == hash(g) and str(f) == str(g)
        assert type(f.c) is RatQ
    for bad in (2.5, "x"):
        with pytest.raises(TypeError):
            BinomialFactor(Z1, Z2, bad)
    with pytest.raises(ValueError):
        BinomialFactor(Z1, Z2, LaurentQ({0: 1, 1: 1}))


def test_factor_canonicalization():
    f, unit = BinomialFactor.make(1, Z1, qp(2), Z2)
    assert (f.i, f.j, f.c) == (Z1, Z2, qp(2))
    assert unit == RatQ.one()

    # q^2 z2 - z1 flips orientation: -(z1 - q^2 z2)
    f2, unit2 = BinomialFactor.make(qp(2), Z2, 1, Z1)
    assert f2 == BinomialFactor(Z1, Z2, qp(2))
    assert unit2 == RatQ.coerce(-1)

    # q^-1 z2 - q z1 = -q (z1 - q^-2 z2)
    f3, unit3 = BinomialFactor.make(qp(-1), Z2, qp(1), Z1)
    assert f3 == BinomialFactor(Z1, Z2, qp(-2))
    assert unit3 == qp(1, -1)

    with pytest.raises(ValueError):
        BinomialFactor(Z2, Z1, qp(0))
    with pytest.raises(ValueError):
        BinomialFactor(Z1, Z2, RatQ(LaurentQ({1: 1, 0: 1})))


def test_constructor_cancels():
    num = V(Z1, 2) - V(Z2, 2, qp(4))
    f = BinomialFactor(Z1, Z2, qp(2))
    r = RatFun(num, {f: 1})
    assert r.is_polynomial()
    assert r.num == V(Z1) + V(Z2, 1, qp(2))


def test_denominator_multiplicities_are_positive_ints():
    f = BinomialFactor(Z1, Z2, qp(2))
    num = (V(Z1) - V(Z2, 1, qp(2))) * (V(Z1) - V(Z2, 1, qp(2)))
    for m in (1.5, 2.0, True, 0, -1):
        with pytest.raises(ValueError):
            RatFun(num, {f: m})
    assert RatFun(num, {f: 2}).is_polynomial()


def test_factor_order():
    # variable order first, then the q-exponent and coefficient of the scalar
    fs = [
        BinomialFactor(Z2, Z3, qp(0)),
        BinomialFactor(Z1, Z3, qp(1)),
        BinomialFactor(Z1, Z2, qp(1, 2)),
        BinomialFactor(Z1, Z2, qp(1)),
        BinomialFactor(Z1, Z2, qp(-1)),
        BinomialFactor(Z1, Z2, qp(1, -1)),
    ]
    assert sorted(fs) == [fs[4], fs[5], fs[3], fs[2], fs[1], fs[0]]
    r = RatFun(MultiLaurent.constant(1), {f: k + 1 for k, f in enumerate(fs)})
    assert r.sorted_den() == [(f, r.den[f]) for f in sorted(fs)]


def test_opposite_orientations_cancel():
    # 1/(z1-z2) + 1/(z2-z1) = 0
    a = RatFun.inverse_factor(BinomialFactor(Z1, Z2, qp(0)))
    f, unit = BinomialFactor.make(1, Z2, 1, Z1)
    b = RatFun.inverse_factor(f).scale(RQ1() / unit)
    assert (a + b).is_zero()


def RQ1():
    return RatQ.one()


def test_sym_group_collapses_pole():
    # Sym z1/(z1-z2) = z1/(z1-z2) + z2/(z2-z1) = 1
    f = RatFun(V(Z1), {BinomialFactor(Z1, Z2, qp(0)): 1})
    s = sym_group(f, (Z1, Z2))
    assert s == RatFun.from_scalar(1)


def test_sym_group_polynomial():
    # Sym over three variables of z1 is 2(z1+z2+z3)
    s = sym_group(RatFun(V(Z1)), (Z1, Z2, Z3))
    assert s == RatFun((V(Z1) + V(Z2) + V(Z3)).scale(2))


def test_rat_sum_lcd():
    f1 = BinomialFactor(Z1, Z2, qp(2))
    f2 = BinomialFactor(Z1, Z2, qp(-2))
    a = RatFun.inverse_factor(f1)
    b = RatFun.inverse_factor(f2)
    s = a + b
    assert s.den == {f1: 1, f2: 1}
    expect = (V(Z1) - V(Z2, 1, qp(-2))) + (V(Z1) - V(Z2, 1, qp(2)))
    assert s.num == expect


def random_ratfun(rng, vs, pool):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = tuple(rng.randint(-2, 2) for _ in vs)
        terms[key] = random_q_monomial(rng)
    num = MultiLaurent(tuple(vs), terms)
    den = {}
    for f in rng.sample(pool, rng.randint(0, 2)):
        den[f] = rng.randint(1, 2)
    return RatFun(num, den)


def factor_pool():
    return [
        BinomialFactor(Z1, Z2, qp(0)),
        BinomialFactor(Z1, Z2, qp(2)),
        BinomialFactor(Z1, Z3, qp(-1)),
        BinomialFactor(Z2, Z3, qp(1)),
    ]


def test_field_axioms_random():
    rng = random.Random(71)
    pool = factor_pool()
    for _ in range(100):
        a = random_ratfun(rng, [Z1, Z2, Z3], pool)
        b = random_ratfun(rng, [Z1, Z2, Z3], pool)
        c = random_ratfun(rng, [Z1, Z2, Z3], pool)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert (a - a).is_zero()


def test_mul_div_factor_roundtrip():
    rng = random.Random(72)
    pool = factor_pool()
    for _ in range(50):
        a = random_ratfun(rng, [Z1, Z2, Z3], pool)
        f = rng.choice(pool)
        assert a.mul_factor(f).div_factor(f) == a
        assert a.div_factor(f, 2).mul_factor(f, 2) == a


def merged(*dens):
    out = {}
    for den in dens:
        for f, m in den.items():
            out[f] = out.get(f, 0) + m
    return out


def test_products_match_full_reduction():
    # each numerator carries some of the other operand's denominator
    # factors; the reference reduces over the merged denominator
    rng = random.Random(74)
    pool = factor_pool()
    cancelled = 0
    for _ in range(100):
        a = random_ratfun(rng, [Z1, Z2, Z3], pool)
        b = random_ratfun(rng, [Z1, Z2, Z3], pool)
        a, b = (
            RatFun(a.num * factor_product({f: rng.randint(0, 2) for f in b.den}), a.den),
            RatFun(b.num * factor_product({f: rng.randint(0, 2) for f in a.den}), b.den),
        )
        ref = RatFun(a.num * b.num, merged(a.den, b.den))
        assert a * b == ref and str(a * b) == str(ref)
        cancelled += sum(merged(a.den, b.den).values()) > sum(ref.den.values())
        f, m = rng.choice(pool), rng.randint(1, 2)
        assert a.mul_factor(f, m) == RatFun(a.num * factor_product({f: m}), a.den)
        assert a.div_factor(f, m) == RatFun(a.num, merged(a.den, {f: m}))
    assert cancelled > 50


def test_eval_matches_symbolic():
    rng = random.Random(73)
    pool = factor_pool()
    done = 0
    while done < 200:
        a = random_ratfun(rng, [Z1, Z2, Z3], pool)
        b = random_ratfun(rng, [Z1, Z2, Z3], pool)
        q0 = random_q_point(rng)
        assignment = {
            v: random_fraction(rng, nonzero=True) for v in (Z1, Z2, Z3)
        }
        try:
            av = a.eval_at(q0, assignment)
            bv = b.eval_at(q0, assignment)
            sv = (a + b).eval_at(q0, assignment)
            pv = (a * b).eval_at(q0, assignment)
        except ZeroDivisionError:
            continue
        assert sv == av + bv
        assert pv == av * bv
        done += 1


def test_relabel_flips_orientation():
    c = qp(2)
    f = RatFun.inverse_factor(BinomialFactor(Z1, Z2, c))
    g = f.relabel({Z1: Z2, Z2: Z1})
    # 1/(z2 - q^2 z1) = (-q^-2) / (z1 - q^-2 z2)
    assert g.den == {BinomialFactor(Z1, Z2, qp(-2)): 1}
    assert g.num == MultiLaurent.constant(qp(-2, -1))
    assert g.relabel({Z1: Z2, Z2: Z1}) == f


def test_factor_product():
    f1 = BinomialFactor(Z1, Z2, qp(2))
    p = factor_product({f1: 2})
    assert p == (V(Z1) - V(Z2, 1, qp(2))) ** 2
