import random
from fractions import Fraction

import pytest

from qshuffle.poly import MultiLaurent, NotDivisible, VarId, aux_var, zvar
from qshuffle.qring import LaurentQ, RatQ
from qshuffle.ratfun import RatFun

from helpers import random_fraction, random_q_monomial, random_q_point

Z1 = zvar(1, 1)
Z2 = zvar(1, 2)
Z3 = zvar(1, 3)
Y1 = zvar(2, 1)
W = aux_var("w")


def qp(e, c=1):
    return RatQ.q_power(e, c)


def binom(vi, c, vj):
    # z_vi - c z_vj as a MultiLaurent
    return MultiLaurent.var_power(vi, 1) - MultiLaurent.var_power(vj, 1).scale(c)


def test_var_ordering_and_display():
    assert str(Z1) == "z[1,1]"
    assert str(W) == "w"
    vs = sorted([W, Y1, Z2, Z1], key=VarId.sort_key)
    assert vs == [Z1, Z2, Y1, W]
    with pytest.raises(ValueError):
        zvar(0, 1)


def test_product_example():
    # (z1 - q^2 z2)(z2 - q^2 z1) = (1+q^4) z1 z2 - q^2 z1^2 - q^2 z2^2
    f = binom(Z1, qp(2), Z2)
    g = binom(Z2, qp(2), Z1)
    expect = MultiLaurent(
        (Z1, Z2),
        {
            (1, 1): RatQ(LaurentQ({0: 1, 4: 1})),
            (2, 0): qp(2, -1),
            (0, 2): qp(2, -1),
        },
    )
    assert f * g == expect


def test_alignment_across_registries():
    f = MultiLaurent.var_power(Z1, 2)
    g = MultiLaurent.var_power(Y1, -1)
    h = f * g
    assert h.vars == (Z1, Y1)
    assert h.terms == {(2, -1): RatQ.one()}
    assert f + 0 == f
    assert (f - f).is_zero()


def test_symmetrize_and_is_symmetric():
    f = MultiLaurent((Z1, Z2), {(2, 1): RatQ.one()})
    s = f.symmetrize(1)
    assert s == MultiLaurent((Z1, Z2), {(2, 1): RatQ.one(), (1, 2): RatQ.one()})
    assert s.is_symmetric(1)
    assert not f.is_symmetric(1)
    # color 2 is untouched: f is trivially symmetric there
    assert f.is_symmetric(2)


def test_symmetrize_scales_by_factorial():
    rng = random.Random(3)
    for _ in range(20):
        f = random_poly(rng, [Z1, Z2, Z3])
        s = f.symmetrize(1)
        assert s.is_symmetric(1)
        assert s.symmetrize(1) == s.scale(6)


def test_substitute_kills_binomial():
    f = binom(Z1, qp(1), Z2)
    assert f.substitute(Z1, qp(1), Z2).is_zero()
    g = f.substitute(Z1, qp(1), W)
    assert g.vars == (Z2, W)
    assert g == (
        MultiLaurent.var_power(W, 1, qp(1)) - MultiLaurent.var_power(Z2, 1, qp(1))
    )


def test_substitute_negative_exponents():
    f = MultiLaurent.var_power(Z1, -2)
    g = f.substitute(Z1, qp(3), W)
    assert g == MultiLaurent.var_power(W, -2, qp(-6))


def test_exact_divide_example():
    # (z1^2 - q^4 z2^2) / (z1 - q^2 z2) = z1 + q^2 z2
    num = MultiLaurent((Z1, Z2), {(2, 0): RatQ.one(), (0, 2): qp(4, -1)})
    quo = num.exact_div_binomial(Z1, Z2, qp(2))
    assert quo == MultiLaurent((Z1, Z2), {(1, 0): RatQ.one(), (0, 1): qp(2)})
    with pytest.raises(NotDivisible):
        (num + 1).exact_div_binomial(Z1, Z2, qp(2))


def test_exact_divide_laurent_support():
    # negative exponents are fine: (z1 - c z2) * z1^-3 z2^-1
    c = qp(-2, Fraction(3, 2))
    h = MultiLaurent((Z1, Z2), {(-3, -1): RatQ.one()})
    f = h * binom(Z1, c, Z2)
    assert f.exact_div_binomial(Z1, Z2, c) == h


def random_poly(rng, vs, max_terms=5, exp_range=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = tuple(rng.randint(-exp_range, exp_range) for _ in vs)
        terms[key] = random_q_monomial(rng)
    return MultiLaurent(tuple(vs), terms)


def test_division_roundtrip_random():
    rng = random.Random(41)
    for _ in range(200):
        vs = [Z1, Z2, Y1]
        f = random_poly(rng, vs)
        c = random_q_monomial(rng)
        vi, vj = rng.sample(vs, 2)
        d = MultiLaurent.var_power(vi, 1) - MultiLaurent.var_power(vj, 1).scale(c)
        assert (f * d).exact_div_binomial(vi, vj, c) == f


def test_divisible_iff_substitution_vanishes():
    rng = random.Random(42)
    hits = 0
    for _ in range(200):
        vs = [Z1, Z2]
        f = random_poly(rng, vs, max_terms=3)
        c = random_q_monomial(rng)
        if rng.random() < 0.5:
            f = f * (
                MultiLaurent.var_power(Z1, 1)
                - MultiLaurent.var_power(Z2, 1).scale(c)
            )
        vanishes = f.substitute(Z1, c, Z2).is_zero()
        try:
            f.exact_div_binomial(Z1, Z2, c)
            divisible = True
        except NotDivisible:
            divisible = False
        assert divisible == vanishes
        hits += divisible
    assert 0 < hits < 200  # both branches exercised


def test_divided_difference_matches_swap_and_divide():
    rng = random.Random(44)
    for _ in range(200):
        vs = [Z1, Z2, Y1]
        f = random_poly(rng, vs, max_terms=6, exp_range=4)
        vi, vj = rng.sample(vs, 2)
        swapped = f.relabel({vi: vj, vj: vi})
        expect = (f - swapped).exact_div_binomial(vi, vj, RatQ.one())
        assert f.divided_difference(vi, vj) == expect
    # a variable outside the registry counts as exponent 0
    assert MultiLaurent.var_power(Z1, -2).divided_difference(Z1, W) == (
        MultiLaurent.monomial({Z1: -2, W: -1}).scale(-1)
        + MultiLaurent.monomial({Z1: -1, W: -2}).scale(-1)
    )
    sym = MultiLaurent.monomial({Z1: 3, Z2: -1}) + MultiLaurent.monomial({Z1: -1, Z2: 3})
    assert sym.divided_difference(Z1, Z2).is_zero()


def test_same_variable_binomial_rejected():
    # (F - sF)/(z - z) is undefined, and z - c z is a monomial, not a binomial
    z = MultiLaurent.var_power(Z1, 1)
    with pytest.raises(ValueError):
        z.divided_difference(Z1, Z1)
    with pytest.raises(ValueError):
        z.exact_div_binomial(Z1, Z1, 2)


def test_eval_commutes_with_ops():
    rng = random.Random(43)
    for _ in range(200):
        vs = [Z1, Z2]
        f = random_poly(rng, vs, max_terms=3)
        g = random_poly(rng, vs, max_terms=3)
        q0 = random_q_point(rng)
        assignment = {
            Z1: random_fraction(rng, nonzero=True),
            Z2: random_fraction(rng, nonzero=True),
        }
        assert (f + g).eval_at(q0, assignment) == f.eval_at(
            q0, assignment
        ) + g.eval_at(q0, assignment)
        assert (f * g).eval_at(q0, assignment) == f.eval_at(
            q0, assignment
        ) * g.eval_at(q0, assignment)


def test_relabel_injective_required():
    f = MultiLaurent((Z1, Z2), {(1, 2): RatQ.one()})
    with pytest.raises(ValueError):
        f.relabel({Z1: Z2})
    g = f.relabel({Z1: Z2, Z2: Z1})
    assert g.terms == {(2, 1): RatQ.one()}


def test_term_lines_canonical():
    f = MultiLaurent(
        (Z1, Y1), {(2, -1): RatQ(LaurentQ({0: 1, 2: 1})), (0, 0): qp(0, 1)}
    )
    assert f.term_lines() == [
        "(1) q^0 | 1",
        "(1) q^0 | z[1,1]^2 z[2,1]^-1",
        "(1) q^2 | z[1,1]^2 z[2,1]^-1",
    ]


def test_homogeneity_helper():
    f = MultiLaurent((Z1, Z2), {(2, 1): RatQ.one(), (1, 2): RatQ.one()})
    assert f.total_degree_if_homogeneous() == 3
    assert (f + 1).total_degree_if_homogeneous() is None


def test_equal_values_hash_equal():
    p = binom(Z1, qp(2), Z2)
    pairs = [
        (MultiLaurent.constant(1), MultiLaurent.constant(1, (Z1,))),
        (p, p.with_vars((Y1, W))),
        (LaurentQ({0: 5}), 5),
        (LaurentQ(), 0),
        (RatQ(LaurentQ({0: 5})), LaurentQ({0: 5})),
        (RatQ(LaurentQ({2: 1, 0: 1})), LaurentQ({2: 1, 0: 1})),
        (MultiLaurent.constant(3), Fraction(3)),
        (MultiLaurent.zero((Z1,)), 0),
        (RatFun(p), p),
    ]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b), (a, b)
    assert len({MultiLaurent.constant(1), MultiLaurent.constant(1, (Z1,))}) == 1
