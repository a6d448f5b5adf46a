import copy
import pickle
import random
from fractions import Fraction

import pytest

from qshuffle.poly import MultiLaurent, VarId, aux_var, zvar
from qshuffle.qring import LaurentQ, RatQ
from qshuffle import ratfun
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
    # every scalar type is split into a q^s before the checks, as in make
    for scalar, want in [
        (LaurentQ.q_power(2), qp(2)),
        (1, RatQ.one()),
        (Fraction(1, 2), qp(0, Fraction(1, 2))),
        (qp(-1, 3), qp(-1, 3)),
        (-3, qp(0, -3)),
        (Fraction(4, 2), qp(0, 2)),
        (RatQ(LaurentQ.q_power(1, 3), LaurentQ.q_power(3, 2)), qp(-2, Fraction(3, 2))),
    ]:
        f, g = BinomialFactor(Z1, Z2, scalar), BinomialFactor(Z1, Z2, want)
        assert f == g and hash(f) == hash(g) and str(f) == str(g)
        assert type(f.c) is RatQ
    for bad in (2.5, "x"):
        with pytest.raises(TypeError):
            BinomialFactor(Z1, Z2, bad)
    for bad in (LaurentQ({0: 1, 1: 1}), 0, RatQ(1, LaurentQ({0: 1, 2: 1}))):
        with pytest.raises(ValueError):
            BinomialFactor(Z1, Z2, bad)


def test_factor_from_parts_refuses_malformed_parts():
    # the errors BinomialFactor(i, j, c) raises for the same scalar; a zero
    # scalar once built z1 - 0 z2, which no numerator reduced against
    for s, a in ((0, 0), (2, Fraction(0))):
        with pytest.raises(ValueError):
            BinomialFactor(Z1, Z2, qp(s, a))
        with pytest.raises(ValueError):
            BinomialFactor.from_parts(Z1, Z2, s, a)
    for bad in (1.5, "x", None):
        with pytest.raises(TypeError):
            BinomialFactor(Z1, Z2, bad)
        with pytest.raises(TypeError):
            BinomialFactor.from_parts(Z1, Z2, 0, bad)
    for s in (1.5, 2.0, "1", None):
        with pytest.raises(ValueError):
            BinomialFactor.from_parts(Z1, Z2, s)
    # well-formed parts build the factor BinomialFactor(i, j, c) builds
    for s, a in ((0, 1), (-3, -2), (2, Fraction(2, 3)), (1, Fraction(4, 2))):
        f = BinomialFactor.from_parts(Z1, Z2, s, a)
        assert f == BinomialFactor(Z1, Z2, qp(s, a)) and str(f) == str(BinomialFactor(Z1, Z2, qp(s, a)))
        assert type(f.a) is type(BinomialFactor(Z1, Z2, qp(s, a)).a)
    # the factor the zero scalar built, as a denominator and expanded
    num = MultiLaurent.var_power(Z1, 3)
    with pytest.raises(ValueError):
        RatFun(num, {BinomialFactor.from_parts(Z1, Z2, 0, 0): 1})


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


# the factor as it was: a RatQ scalar ordered by a hand-written __lt__,
# canonicalized and flipped by RatQ division
def reference_factor_key(f):
    a = f.c.num
    e = min(a.terms)
    return (f.i, f.j, e, a.coeff(e))


def reference_make(a, vi, b, vj):
    a, b = RatQ.coerce(a), RatQ.coerce(b)
    if vi < vj:
        return BinomialFactor(vi, vj, b / a), a
    return BinomialFactor(vj, vi, a / b), -b


def reference_relabel(f, mapping):
    ni, nj = mapping.get(f.i, f.i), mapping.get(f.j, f.j)
    if ni < nj:
        return BinomialFactor(ni, nj, f.c), RatQ.one()
    return reference_make(RatQ.one(), ni, f.c, nj)


POOL_VARS = [Z1, Z2, zvar(2, 1), zvar(3, 2), aux_var("w"), aux_var("t"), aux_var("w", 2)]


def random_scalar(rng):
    """A nonzero q-monomial as int, Fraction, LaurentQ or RatQ, with
    negative coefficients and exponents."""
    c = random_fraction(rng, nonzero=True)
    e = rng.randint(-4, 4)
    return rng.choice([c.numerator, c, LaurentQ.q_power(e, c), qp(e, c)])


def random_factor(rng):
    vi, vj = sorted(rng.sample(POOL_VARS, 2))
    return BinomialFactor(vi, vj, random_scalar(rng))


def test_factor_order_is_the_old_key():
    rng = random.Random(59)
    pool = [random_factor(rng) for _ in range(120)]
    for f in pool:
        assert isinstance(f, tuple) and f == (f.i, f.j, f.s, f.a)
        assert type(f.a) is int or f.a.denominator != 1
    assert sorted(pool) == sorted(pool, key=reference_factor_key)
    for f, g in zip(pool, pool[1:] + pool[:1]):
        assert (f < g) == (reference_factor_key(f) < reference_factor_key(g))


def test_make_and_relabel_match_the_ratq_division_reference():
    rng = random.Random(61)
    for _ in range(150):
        vi, vj = rng.sample(POOL_VARS, 2)
        a, b = random_scalar(rng), random_scalar(rng)
        f, unit = BinomialFactor.make(a, vi, b, vj)
        assert (f, unit) == reference_make(a, vi, b, vj)
        assert type(unit) is RatQ and (type(f.a) is int or f.a.denominator != 1)
        lhs = V(vi, 1, a) - V(vj, 1, b)
        assert lhs == (V(f.i) - V(f.j, 1, f.c)).scale(unit)
        shuffled = rng.sample(POOL_VARS, len(POOL_VARS))
        for mapping in (dict(zip(POOL_VARS, shuffled)), {f.i: f.j, f.j: f.i}, {f.i: rng.choice(shuffled)}):
            if mapping.get(f.i, f.i) == mapping.get(f.j, f.j):
                with pytest.raises(ValueError):
                    f.relabel(mapping)
                continue
            got = f.relabel(mapping)
            assert got == reference_relabel(f, mapping) and type(got[1]) is RatQ
    with pytest.raises(ValueError):
        BinomialFactor.make(1, Z1, 1, Z1)
    with pytest.raises(ValueError):
        BinomialFactor.make(0, Z1, 1, Z2)


def test_factor_and_ratfun_survive_pickle_and_copy():
    f = BinomialFactor(Z1, aux_var("w"), qp(-2, Fraction(-3, 4)))
    g = BinomialFactor(Z1, Z2, qp(2))
    r = RatFun(V(Z1, 2) - V(Z2, 1, qp(1, 5)), {f: 2, g: 1})
    for x in (f, r):
        copies = [pickle.loads(pickle.dumps(x, p)) for p in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for y in copies + [copy.copy(x), copy.deepcopy(x)]:
            assert type(y) is type(x) and y == x and hash(y) == hash(x) and str(y) == str(x)
    assert copy.deepcopy(r).sorted_den() == r.sorted_den()


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


def test_reduce_formats_no_failed_division(monkeypatch):
    # _reduce drops each NotDivisible it catches: none may print its divisor
    z1, z2, z3 = zvar(1, 1), zvar(1, 2), zvar(1, 3)
    strs = []
    laurent_str = LaurentQ.__str__

    def counted(self):
        strs.append(self)
        return laurent_str(self)

    monkeypatch.setattr(LaurentQ, "__str__", counted)
    # z1 - q z3 divides once; the second try and the other two factors fail
    divides, f12, f23 = (BinomialFactor.from_parts(*p) for p in ((z1, z3, 1), (z1, z2, 2), (z2, z3, -1)))
    num = MultiLaurent.var_power(z1, 1) - MultiLaurent.var_power(z3, 1, RatQ.q_power(1))
    got_num, got_den = ratfun._reduce(num, {divides: 2, f12: 1, f23: 1})
    assert got_num == MultiLaurent.constant(1)
    assert got_den == {divides: 1, f12: 1, f23: 1}
    assert strs == []
