"""Truncated series: elementary expansions, verified products, comparison.

``series_mul`` and ``expand_ratfun`` do their coefficient arithmetic with
``MultiLaurent.__mul__``, and ``expand_inverse``, ``delta_series`` and
``TruncSeries.from_poly`` are ``expand_ratfun`` expansions.  The
``reference_*`` functions below keep the direct term-by-term loops they
replaced, and the differential tests check that both give the same terms,
reliable window and support.
"""

import random

import pytest

from qshuffle.formal import (
    NonAdmissibleProduct,
    Support,
    TruncSeries,
    Window,
    _iv_sum,
    _propagate,
    compare_on_window,
    delta_series,
    expand_binomial_inverse,
    expand_inverse,
    expand_ratfun,
    series_mul,
)
from qshuffle.identities import _zs, term_value, window_identity_report
from qshuffle.poly import MultiLaurent, _sorted_vars, aux_var, zvar
from qshuffle.qring import RQ_ONE, LaurentQ, RatQ
from qshuffle.ratfun import BinomialFactor, RatFun

from helpers import coefficients, random_q_monomial, series_delta_chain
from tuple_kernel import expanded

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
    assert expanded(s) == expanded(MultiLaurent((Z1, Z2), {(-1, 0): qp(-2), (-2, 1): qp(-4)}))
    assert s.reliable == Window(-2, 2)


def test_expand_inverse_subordinate_side():
    # 1/(z1 - c z2) with z2 dominant: -c^-1 sum (c^-t z1^t z2^-1-t)
    c = qp(2)
    s = expand_inverse(BinomialFactor(Z1, Z2, c), Z2, Window(-2, 2))
    assert expanded(s) == expanded(MultiLaurent((Z1, Z2), {(0, -1): qp(-2, -1), (1, -2): qp(-4, -1)}))
    with pytest.raises(ValueError):
        expand_inverse(BinomialFactor(Z1, Z2, c), Z3, Window(-2, 2))


def test_delta_series_terms():
    d = delta_series(Z1, 1, W, Window(-2, 2))
    assert expanded(d) == expanded(MultiLaurent((Z1, W), {(i, -1 - i): 1 for i in (-2, -1, 0, 1)}))
    # scalar deltas scale the coefficients
    d2 = delta_series(Z1, qp(1), W, Window(-2, 2))
    assert d2.coeff((0, -1)) == qp(-1)


def test_delta_series_needs_a_nonzero_q_monomial():
    for bad in (LaurentQ({0: 1, 1: 1}), 0):
        with pytest.raises(ValueError):
            delta_series(Z1, bad, W, Window(-2, 2))


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
    # is q^(a+1) q^(-2b-2), for every such monomial in the reliable box
    box = ch.reliable
    expect = {
        (b - a - 1, -b - 1, a): qp(a + 1) * qp(-2 * b - 2)
        for a in range(box.lo, box.hi + 1)
        for b in range(-box.hi - 1, -box.lo)
        if box.lo <= b - a - 1 <= box.hi
    }
    assert expanded(ch) == expanded(MultiLaurent((Z1, Z2, W), expect))
    # spot value inside the reliable box
    assert ch.coeff((0, -2, 0)) == qp(-3)
    assert ch.support.degree == -2


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


def test_series_sum_keeps_only_the_common_reliable_box():
    a = TruncSeries.from_poly(V(Z1, 3) + V(Z1, -1), Window(-4, 4))
    b = TruncSeries.from_poly(V(Z1, 1), Window(-2, 2))
    s = a + b
    assert s.reliable == Window(-2, 2)
    assert expanded(s) == expanded(MultiLaurent((Z1,), {(-1,): 1, (1,): 1}))
    # a registry slot new to an operand holds exponent 0, outside this box
    c = TruncSeries.from_poly(V(Z1, 2), Window(1, 3))
    d = TruncSeries.from_poly(V(W, 2), Window(1, 3))
    assert (c + d).vars == (Z1, W) and not (c + d).terms


def test_expand_ratfun_matches_expand_inverse():
    win = Window(-4, 4)
    f = BinomialFactor(Z1, W, qp(0))
    assert compare_on_window(
        expand_ratfun(RatFun.inverse_factor(f), [Z1, W], win),
        reference_expand_inverse(f, Z1, win),
    )
    assert compare_on_window(
        expand_ratfun(RatFun.inverse_factor(f), [W, Z1], win),
        reference_expand_inverse(f, W, win),
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
    assert r.support.degree == -1


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


# ---------- references: the direct term loops ----------


def reference_expand_inverse(factor, dominant, window):
    """``expand_inverse`` writing the geometric series of 1/(z_i - c z_j)
    term by term until both exponents have left the window."""
    i, j, c = factor.i, factor.j, factor.c
    if dominant == i:
        big, small, base, k0 = i, j, c, RQ_ONE
    else:
        big, small, base, k0 = j, i, RQ_ONE / c, -(RQ_ONE / c)
    vs = _sorted_vars((i, j))
    bi, si = vs.index(big), vs.index(small)
    terms = {}
    coeff = k0
    t = 0
    while not (-1 - t < window.lo and t > window.hi):
        if window.lo <= -1 - t <= window.hi and window.lo <= t <= window.hi:
            exps = [0, 0]
            exps[bi], exps[si] = -1 - t, t
            terms[tuple(exps)] = coeff
        coeff = coeff * base
        t += 1
    support = Support({big: (None, -1), small: (0, None)}, -1)
    return TruncSeries(vs, terms, window, window, support)


def reference_delta_series(x, c, y, window):
    """``delta_series`` writing c^(-i-1) x^i y^(-i-1) for each i that
    keeps both exponents inside the window."""
    c = RatQ.coerce(c)
    vs = _sorted_vars((x, y))
    xi, yi = vs.index(x), vs.index(y)
    terms = {}
    for i in range(max(window.lo, -1 - window.hi), min(window.hi, -1 - window.lo) + 1):
        exps = [0, 0]
        exps[xi], exps[yi] = i, -1 - i
        terms[tuple(exps)] = c ** (-i - 1)
    support = Support({x: (None, None), y: (None, None)}, -1)
    return TruncSeries(vs, terms, window, window, support)


def reference_from_poly(p, window):
    """``TruncSeries.from_poly`` reading the support off the polynomial."""
    bounds = {v: p.exp_range(v) for v in p.vars}
    deg = p.total_degree_if_homogeneous()
    degree = deg if p.vars and not p.is_zero() and deg is not None else None
    return TruncSeries(p.vars, coefficients(p), window, window, Support(bounds, degree))


def reference_series_mul(a, b):
    """``series_mul`` with a pair loop that adds only products landing in
    the result box."""
    a = a.with_vars(b.vars)
    b = b.with_vars(a.vars)
    vs = a.vars
    window = a.window.intersect(b.window)
    cand = a.reliable.intersect(b.reliable)
    while True:
        got = _propagate(a, b, vs, cand)
        if got == "empty":
            break
        if got is None:
            raise NonAdmissibleProduct("cannot certify local finiteness")
        A, B = got
        lo_bump = hi_bump = False
        for side, s in ((A, a), (B, b)):
            for v in vs:
                lo, hi = side[v]
                if v in s.vars:
                    lo_bump |= lo < s.reliable.lo
                    hi_bump |= hi > s.reliable.hi
                elif lo < 0 or hi > 0:
                    raise NonAdmissibleProduct("escapes an absent variable")
        if not (lo_bump or hi_bump):
            break
        if cand.lo + lo_bump > cand.hi - hi_bump:
            raise NonAdmissibleProduct("no reliable result window left")
        cand = Window(cand.lo + lo_bump, cand.hi - hi_bump)

    terms = {}
    if got != "empty":
        ai = [A[v] for v in vs]
        bi = [B[v] for v in vs]
        bterms = [
            (eb, cb) for eb, cb in coefficients(b).items()
            if all(lo <= e <= hi for e, (lo, hi) in zip(eb, bi))
        ]
        for ea, ca in coefficients(a).items():
            if not all(lo <= e <= hi for e, (lo, hi) in zip(ea, ai)):
                continue
            for eb, cb in bterms:
                key = tuple(x + y for x, y in zip(ea, eb))
                if all(cand.lo <= e <= cand.hi for e in key):
                    s = terms.get(key, RatQ.zero()) + ca * cb
                    if s:
                        terms[key] = s
                    else:
                        del terms[key]
    bounds = {
        v: _iv_sum((
            a.support.bound(v) if v in a.vars else (0, 0),
            b.support.bound(v) if v in b.vars else (0, 0),
        ))
        for v in vs
    }
    da, db = a.support.degree, b.support.degree
    degree = da + db if da is not None and db is not None else None
    return TruncSeries(vs, terms, window, cand, Support(bounds, degree))


def reference_expand_ratfun(f, order, window):
    """``expand_ratfun`` applying each geometric series term by term and
    dropping a term as soon as it can no longer reach the window."""
    if f.is_zero():
        vs = _sorted_vars(order)
        return TruncSeries(vs, {}, window, window, Support({v: (0, 0) for v in vs}, None))
    pos = {v: k for k, v in enumerate(order)}
    num = f.num.with_vars(order)
    vs = num.vars
    idx = {v: i for i, v in enumerate(vs)}
    copies = []
    for fac, mult in f.den.items():
        if pos[fac.i] < pos[fac.j]:
            cp = (fac.i, fac.j, fac.c, RQ_ONE)
        else:
            cp = (fac.j, fac.i, RQ_ONE / fac.c, -(RQ_ONE / fac.c))
        copies += [cp] * mult
    nmax = {v: num.exp_range(v)[1] for v in vs}
    caps = [0] * len(copies)
    for v in order:
        D = [k for k, cp in enumerate(copies) if cp[0] == v]
        S = [k for k, cp in enumerate(copies) if cp[1] == v]
        total = nmax[v] - len(D) - window.lo + sum(caps[k] for k in S)
        for k in D:
            caps[k] = max(0, total)

    partial = coefficients(num)
    for k, (dom, sub, base, unit) in enumerate(copies):
        dlo = {v: 0 for v in vs}
        dhi = {v: 0 for v in vs}
        for j in range(k + 1, len(copies)):
            d, s = copies[j][:2]
            dlo[d] -= 1 + caps[j]
            dhi[d] -= 1
            dhi[s] += caps[j]
        out = {}
        for exps, co in partial.items():
            coeff = co * unit
            for t in range(caps[k] + 1):
                lst = list(exps)
                lst[idx[dom]] -= 1 + t
                lst[idx[sub]] += t
                if all(window.lo <= e + dhi[v] and e + dlo[v] <= window.hi for v, e in zip(vs, lst)):
                    key = tuple(lst)
                    s = out.get(key, RatQ.zero()) + coeff
                    if s:
                        out[key] = s
                    else:
                        del out[key]
                coeff = coeff * base
        partial = out

    box = {}
    for v in vs:
        D = sum(1 for cp in copies if cp[0] == v)
        S = sum(1 for cp in copies if cp[1] == v)
        lo, hi = num.exp_range(v)
        box[v] = (None if D else lo, (hi - D) if not S else None)
    deg = num.total_degree_if_homogeneous()
    degree = deg - len(copies) if deg is not None and vs else None
    return TruncSeries(vs, partial, window, window, Support(box, degree))


def assert_same_series(x, y):
    assert x.vars == y.vars
    assert expanded(x) == expanded(y)
    assert (x.window, x.reliable) == (y.window, y.reliable)
    assert x.support == y.support


def assert_same_product(a, b):
    """``series_mul`` and the reference agree, raising included."""
    try:
        ref = reference_series_mul(a, b)
    except NonAdmissibleProduct:
        with pytest.raises(NonAdmissibleProduct):
            series_mul(a, b)
        return False
    assert_same_series(series_mul(a, b), ref)
    return True


def delta_chain(zs, shift, step, window):
    chain = delta_series(W, qp(shift), zs[0], window)
    for x, y in zip(zs, zs[1:]):
        chain = series_mul(chain, delta_series(x, qp(step), y, window))
    return chain


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_series_mul_matches_reference_on_delta_chains(n):
    zs = [zvar(1, i) for i in range(1, n + 1)]
    for shift, step in ((-n, 2), (n, -2)):
        for win in (Window(-6, 6), Window(-3, 2)):
            chain = delta_series(W, qp(shift), zs[0], win)
            for x, y in zip(zs, zs[1:]):
                d = delta_series(x, qp(step), y, win)
                assert_same_series(series_mul(chain, d), reference_series_mul(chain, d))
                chain = series_mul(chain, d)


def test_series_mul_matches_reference_polynomial_times_series():
    rng = random.Random(5)
    chain = delta_chain([Z1, Z2], -1, 2, Window(-6, 6))
    inv = expand_inverse(BinomialFactor(Z1, Z2, qp(2)), Z1, Window(-6, 6))
    for _ in range(20):
        terms = {
            tuple(rng.randint(-2, 2) for _ in range(3)): random_q_monomial(rng)
            for _ in range(rng.randint(1, 4))
        }
        p = TruncSeries.from_poly(MultiLaurent((Z1, Z2, W), terms), Window(-5, 5))
        for s in (chain, inv):
            assert_same_series(series_mul(p, s), reference_series_mul(p, s))
            assert_same_series(series_mul(s, p), reference_series_mul(s, p))


def test_series_mul_matches_reference_on_squared_poles():
    win = Window(-5, 5)
    f = BinomialFactor(Z1, W, qp(1))
    sq = RatFun(V(Z1, 2) + V(W, 2, qp(3)), {f: 2})
    for order in ([Z1, W], [W, Z1]):
        s = expand_ratfun(sq, order, win)
        assert_same_series(s, reference_expand_ratfun(sq, order, win))
        p = TruncSeries.from_poly(V(Z1, -1) + V(W, -1, qp(2)), win)
        assert assert_same_product(p, s)
        assert assert_same_product(s, delta_series(W, qp(-1), Z2, win))
        assert assert_same_product(s, s)


def test_opposite_expansions_raise_in_both():
    win = Window(-5, 5)
    f = BinomialFactor(Z1, W, RatQ.one())
    a, b = expand_inverse(f, Z1, win), expand_inverse(f, W, win)
    for mul in (series_mul, reference_series_mul):
        with pytest.raises(NonAdmissibleProduct):
            mul(a, b)


@pytest.mark.parametrize(
    "m, win",
    (
        (1, Window(-6, 6)), (1, Window(-2, 3)), (2, Window(-3, 3)),
        (1, Window(-8, 0)), (2, Window(-5, 0)),
        (3, Window(-2, 2)), (3, Window(-4, 0)),
        (4, Window(-1, 1)), (4, Window(-3, 0)), (4, Window(0, 2)),
    ),
)
def test_expand_ratfun_matches_reference_on_pole_sum_terms(m, win):
    # symmetric and one-sided windows, both orientations, every k
    zs = [zvar(1, i) for i in range(1, m + 2)]
    for qi in (False, True):
        for k in range(m + 2):
            f = term_value(m, k, tuple(range(1, m + 2)), qi)
            order = zs[:k] + [W] + zs[k:]
            assert_same_series(expand_ratfun(f, order, win), reference_expand_ratfun(f, order, win))


def test_expand_ratfun_matches_reference_on_random_functions():
    rng = random.Random(17)
    order = [Z2, W, Z1]
    pool = [
        BinomialFactor(Z1, Z2, qp(2)),
        BinomialFactor(Z1, W, qp(-1)),
        BinomialFactor(Z2, W, qp(1)),
    ]
    for _ in range(30):
        terms = {
            tuple(rng.randint(-2, 2) for _ in range(3)): random_q_monomial(rng)
            for _ in range(rng.randint(1, 3))
        }
        den = {fac: rng.randint(1, 2) for fac in rng.sample(pool, rng.randint(0, 3))}
        f = RatFun(MultiLaurent((Z1, Z2, W), terms), den)
        for win in (Window(-4, 4), Window(-2, 1)):
            assert_same_series(expand_ratfun(f, order, win), reference_expand_ratfun(f, order, win))


ELEMENTARY_WINDOWS = (Window(-6, 6), Window(-3, 2), Window(1, 3), Window(-4, -1), Window(0, 0))


def test_elementary_series_match_term_loops():
    rng = random.Random(29)
    scalars = [qp(-2), RatQ.one(), qp(1), qp(3), random_q_monomial(rng), random_q_monomial(rng)]
    for win in ELEMENTARY_WINDOWS:
        for x, y in ((Z1, W), (W, Z1), (Z1, Z2), (Z2, Z1)):
            for c in scalars:
                assert_same_series(delta_series(x, c, y, win), reference_delta_series(x, c, y, win))
                f, _ = BinomialFactor.make(1, x, c, y)
                for dominant in (x, y):
                    assert_same_series(
                        expand_inverse(f, dominant, win), reference_expand_inverse(f, dominant, win)
                    )


def test_from_poly_matches_reference():
    rng = random.Random(31)
    polys = [MultiLaurent.zero(), MultiLaurent.zero((Z1, W)), MultiLaurent.constant(qp(2))]
    for vs in ((Z1,), (Z1, W), (Z1, Z2, W)):
        for _ in range(8):
            terms = {
                tuple(rng.randint(-3, 3) for _ in vs): random_q_monomial(rng)
                for _ in range(rng.randint(1, 4))
            }
            polys.append(MultiLaurent(vs, terms))
    polys.append(V(Z1, 2) - V(W, 2, qp(1)))  # homogeneous: carries a degree
    for win in ELEMENTARY_WINDOWS:
        for p in polys:
            assert_same_series(TruncSeries.from_poly(p, win), reference_from_poly(p, win))


def test_window_bounds_are_integers():
    for lo, hi in ((1.5, 3), (-2, 2.0), (True, 3)):
        with pytest.raises(ValueError, match="window bound"):
            Window(lo, hi)
    with pytest.raises(ValueError, match="window bound"):
        window_identity_report(1, Window(-2.5, 2.5))


# ---------- the support degree ----------


def test_expand_ratfun_degree():
    f = BinomialFactor(Z1, W, qp(1))
    hom = RatFun(V(Z1, 2) + V(W, 2, qp(3)), {f: 2})
    assert expand_ratfun(hom, [Z1, W], Window(-3, 3)).support.degree == 0
    assert expand_ratfun(RatFun(V(Z1, 2), {f: 1}), [W, Z1], Window(-3, 3)).support.degree == 1
    mixed = RatFun(V(Z1, 2) + V(W, 1), {f: 1})
    assert expand_ratfun(mixed, [Z1, W], Window(-3, 3)).support.degree is None
    assert expand_ratfun(RatFun.zero(), [Z1], Window(-3, 3)).support.degree is None


def test_degree_through_relabel_with_vars_sums_and_products():
    win = Window(-4, 4)
    d = delta_series(Z1, qp(1), W, win)
    assert d.support.degree == -1
    assert d.relabel({Z1: Z2}).support.degree == -1
    assert d.with_vars((Z2,)).support.degree == -1
    # equal degrees survive a sum, also across different registries
    e = delta_series(Z2, qp(1), W, win)
    assert (d + e).vars == (Z1, Z2, W)
    assert (d + e).support.degree == -1
    p = TruncSeries.from_poly(V(Z1, 1), win)
    assert p.support.degree == 1
    assert (d + p).support.degree is None
    # a product adds the degrees, and a missing degree stays missing
    assert series_mul(d, p).support.degree == 0
    assert series_mul(d, e).support.degree == -2
    mixed = TruncSeries.from_poly(V(Z1, 1) + V(W, 2), win)
    assert series_mul(d, mixed).support.degree is None


# (window, reliable) of the series-built delta chains (the tests'
# reference for the window identity's right side) on the window -3..3, the same for both readings and orientations; every variable's
# support bound is unbounded on both sides
RHS_BOXES = {
    1: ((-9, 9), (-5, 9)),
    2: ((-11, 11), (-3, 11)),
    3: ((-13, 13), (-2, 13)),
}


@pytest.mark.parametrize("m", sorted(RHS_BOXES))
def test_rhs_series_boxes_are_pinned(m):
    window, reliable = RHS_BOXES[m]
    for reading in ("qminus", "qplus"):
        for q_inverted in (False, True):
            s = series_delta_chain(_zs(m), Window(-3, 3), reading, q_inverted)
            assert (s.window.as_pair(), s.reliable.as_pair()) == (window, reliable)
            assert s.vars == tuple(zvar(1, i) for i in range(1, m + 2)) + (W,)
            assert s.support.bounds == dict.fromkeys(s.vars, (None, None))
            assert s.support.degree == -1 - m
