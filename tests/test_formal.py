import random

import pytest

from qshuffle.formal import (
    NonAdmissibleProduct,
    Support,
    TruncSeries,
    Window,
    compare_on_window,
    delta_series,
    expand_binomial_inverse,
    expand_inverse,
    expand_ratfun,
    series_mul,
)
from qshuffle.poly import MultiLaurent, aux_var, zvar
from qshuffle.qring import RatQ
from qshuffle.ratfun import BinomialFactor, RatFun

from helpers import random_q_monomial

Z1 = zvar(1, 1)
Z2 = zvar(1, 2)
Z3 = zvar(1, 3)
W = aux_var("w")

qp = RatQ.q_power


def V(v, e=1, c=1):
    return MultiLaurent.var_power(v, e, c)


def test_window_validation():
    with pytest.raises(ValueError):
        Window(1, 0)
    assert Window(-2, 2).intersect(Window(0, 5)) == Window(0, 2)


def test_expand_inverse_example():
    # 1/(q^2 z1 - z2), z1 dominant, window [-2,2]:
    # q^-2 z1^-1 + q^-4 z2 z1^-2 (higher tails leave the window)
    s = expand_binomial_inverse(qp(2), Z1, 1, Z2, Z1, Window(-2, 2))
    assert s.vars == (Z1, Z2)
    assert s.terms == {(-1, 0): qp(-2), (-2, 1): qp(-4)}
    assert s.reliable == Window(-2, 2)


def test_expand_inverse_subordinate_side():
    # 1/(z1 - c z2) with z2 dominant: -c^-1 sum (c^-t z1^t z2^-1-t)
    c = qp(2)
    s = expand_inverse(BinomialFactor(Z1, Z2, c), Z2, Window(-2, 2))
    assert s.terms == {(0, -1): qp(-2, -1), (1, -2): qp(-4, -1)}
    with pytest.raises(ValueError):
        expand_inverse(BinomialFactor(Z1, Z2, c), Z3, Window(-2, 2))


def test_delta_series_terms():
    d = delta_series(Z1, 1, W, Window(-2, 2))
    assert d.terms == {
        (i, -1 - i): RatQ.one() for i in (-2, -1, 0, 1)
    }
    # scalar deltas scale the coefficients
    d2 = delta_series(Z1, qp(1), W, Window(-2, 2))
    assert d2.coeff((0, -1)) == qp(-1)


def test_delta_symmetry_in_arguments():
    # delta(x = c y) equals c^-1 delta(y = c^-1 x)
    win = Window(-4, 4)
    a = delta_series(Z1, qp(2), W, win)
    b = delta_series(W, qp(-2), Z1, win)
    assert compare_on_window(a, b.scale(qp(-2)))


def test_expansion_difference_is_delta():
    win = Window(-5, 5)
    f = BinomialFactor(Z1, W, RatQ.one())
    a = expand_inverse(f, Z1, win)
    b = expand_inverse(f, W, win)
    assert compare_on_window(a - b, delta_series(Z1, 1, W, win))


def test_opposite_expansions_not_multipliable():
    win = Window(-5, 5)
    f = BinomialFactor(Z1, W, RatQ.one())
    a = expand_inverse(f, Z1, win)
    b = expand_inverse(f, W, win)
    with pytest.raises(NonAdmissibleProduct):
        series_mul(a, b)


def test_delta_times_delta_chain():
    # delta(w = q^-1 z1) delta(z1 = q^2 z2): exact coefficients
    win = Window(-8, 8)
    ch = series_mul(
        delta_series(W, qp(-1), Z1, win), delta_series(Z1, qp(2), Z2, win)
    )
    # direct bilateral formula: coefficient of z1^(b-a-1) z2^(-b-1) w^a
    # is q^(a+1) q^(-2b-2)
    for (e1, e2, ew), c in ch.terms.items():
        a = ew
        b = -1 - e2
        assert e1 == b - a - 1
        assert c == qp(a + 1) * qp(-2 * b - 2)
    # spot value inside the reliable box
    assert ch.coeff((0, -2, 0)) == qp(-3)
    assert frozenset((Z1, Z2, W)) in ch.support.ties
    assert ch.support.ties[frozenset((Z1, Z2, W))] == -2


def test_delta_eats_polynomial_argument():
    # delta(z = w) P(z) = delta(z = w) P(w) for monomials
    win = Window(-6, 6)
    d = delta_series(Z1, 1, W, win)
    pz = TruncSeries.from_poly(V(Z1, 2), win)
    pw = TruncSeries.from_poly(V(W, 2), win)
    assert compare_on_window(series_mul(d, pz), series_mul(d, pw))
    # and with the scalar version: delta(z = c w) P(z) = delta(z = c w) P(c w)
    c = qp(3)
    dc = delta_series(Z1, c, W, win)
    pcw = TruncSeries.from_poly(V(W, 2, c * c), win)
    assert compare_on_window(series_mul(dc, pz), series_mul(dc, pcw))


def test_polynomial_product_shrinks_reliable():
    win = Window(-5, 5)
    d = delta_series(Z1, 1, W, win)
    p = TruncSeries.from_poly(V(Z1, 1), win)
    prod = series_mul(p, d)
    # the shift by z1 costs one slot at the lower end only
    assert prod.reliable == Window(-4, 5)
    assert prod.window == win


def test_series_sum_intersects_windows():
    a = TruncSeries.from_poly(V(Z1, 1), Window(-4, 4))
    b = TruncSeries.from_poly(V(Z1, -1), Window(-2, 2))
    s = a + b
    assert s.window == Window(-2, 2)
    assert s.coeff((1,)) == RatQ.one()
    assert s.coeff((-1,)) == RatQ.one()


def test_expand_ratfun_matches_expand_inverse():
    win = Window(-4, 4)
    f = BinomialFactor(Z1, W, qp(0))
    assert compare_on_window(
        expand_ratfun(RatFun.inverse_factor(f), [Z1, W], win),
        expand_inverse(f, Z1, win),
    )
    assert compare_on_window(
        expand_ratfun(RatFun.inverse_factor(f), [W, Z1], win),
        expand_inverse(f, W, win),
    )


def test_expand_ratfun_squared_pole():
    # 1/(z1-w)^2 dominant z1: sum (t+1) w^t z1^(-2-t)
    win = Window(-4, 4)
    f = BinomialFactor(Z1, W, qp(0))
    s = expand_ratfun(RatFun(MultiLaurent.constant(1), {f: 2}), [Z1, W], win)
    for t in range(0, 3):
        assert s.coeff((-2 - t, t)) == RatQ.coerce(t + 1)


def test_expand_ratfun_is_ring_map():
    rng = random.Random(91)
    order = [Z1, Z2, W]
    win = Window(-4, 4)
    big = Window(-10, 10)
    pool = [
        BinomialFactor(Z1, Z2, qp(2)),
        BinomialFactor(Z1, W, qp(0)),
        BinomialFactor(Z2, W, qp(-1)),
    ]
    done = 0
    while done < 50:
        def rand_rf():
            terms = {}
            for _ in range(rng.randint(1, 2)):
                key = tuple(rng.randint(-1, 1) for _ in order)
                terms[key] = random_q_monomial(rng)
            num = MultiLaurent(tuple(order), terms)
            den = {}
            for fac in rng.sample(pool, rng.randint(0, 2)):
                den[fac] = 1
            return RatFun(num, den)

        f = rand_rf()
        g = rand_rf()
        lhs = expand_ratfun(f * g, order, win)
        rhs = series_mul(expand_ratfun(f, order, big), expand_ratfun(g, order, big))
        assert compare_on_window(lhs, rhs, win)
        done += 1


def test_compare_requires_overlap():
    a = TruncSeries.from_poly(V(Z1, 1), Window(-4, -2))
    b = TruncSeries.from_poly(V(Z1, 1), Window(2, 4))
    with pytest.raises(ValueError):
        compare_on_window(a, b)


def test_relabel_series():
    win = Window(-3, 3)
    d = delta_series(Z1, qp(1), W, win)
    r = d.relabel({Z1: Z2})
    assert r.vars == (Z2, W)
    assert r.coeff((0, -1)) == qp(-1)
    assert frozenset((Z2, W)) in r.support.ties


def test_with_vars_adds_fixed_support():
    d = delta_series(Z1, qp(1), W, Window(-3, 3))
    assert d.with_vars((Z1, W)) is d
    e = d.with_vars((Z2,))
    assert e.vars == (Z1, Z2, W)
    assert e.support.bound(Z2) == (0, 0)
    assert Z2 in e.support.bounds
    assert e.coeff((0, 0, -1)) == d.coeff((0, -1))
    assert len(e.terms) == len(d.terms)
    # a new slot holds exponent 0: outside the reliable box, no term stays
    far = TruncSeries.from_poly(MultiLaurent.monomial({Z1: 2}), Window(1, 3))
    assert far.terms and far.with_vars((Z2,)).terms == {}


def test_series_relabel_must_be_injective():
    d = delta_series(Z1, qp(1), W, Window(-3, 3))
    with pytest.raises(ValueError):
        d.relabel({Z1: W})


def test_series_scale_by_zero_and_cancelling_sum():
    d = delta_series(Z1, qp(1), W, Window(-3, 3))
    assert d.scale(0).terms == {}
    assert (d + d.scale(-1)).terms == {}
