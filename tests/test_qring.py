import random
from fractions import Fraction
from itertools import permutations

import pytest

from qshuffle import qring
from qshuffle.cartan import builtin_cartan
from qshuffle.identities import term_value
from qshuffle.qring import (
    LQ_ONE,
    LQ_ZERO,
    LaurentQ,
    RatQ,
    _poly_divmod,
    _poly_gcd,
    q_binomial,
    q_factorial,
    q_int,
)
from qshuffle.shuffle import ShuffleAlgebra, parse_word

from helpers import random_fraction, random_laurent, random_q_point, random_ratq


def LQ(terms):
    return LaurentQ(terms)


# ---------- q-integers and factorials ----------


def test_q_int_small_values():
    assert q_int(0) == LQ_ZERO
    assert q_int(1) == LQ_ONE
    assert q_int(2) == LQ({1: 1, -1: 1})
    assert q_int(3) == LQ({2: 1, 0: 1, -2: 1})


def test_q_int_matches_ratio_definition():
    # [n]_q (q - q^-1) = q^n - q^-n
    for n in range(0, 9):
        lhs = q_int(n) * LQ({1: 1, -1: -1})
        assert lhs == LQ({n: 1, -n: -1}) if n else lhs.is_zero()


def test_q_factorial_frozen():
    assert q_factorial(0) == LQ_ONE
    assert q_factorial(1) == LQ_ONE
    assert q_factorial(3) == LQ({3: 1, 1: 2, -1: 2, -3: 1})


def test_q_int_negative_raises():
    with pytest.raises(ValueError):
        q_int(-1)
    with pytest.raises(ValueError):
        q_factorial(-2)


# ---------- q-binomials ----------


def pascal_binomial(n, p):
    # independent oracle: symmetric q-Pascal recursion
    #   [n,p] = q^p [n-1,p] + q^(p-n) [n-1,p-1]
    if p < 0 or p > n:
        return LQ_ZERO
    if n == 0:
        return LQ_ONE
    return LaurentQ.q_power(p) * pascal_binomial(n - 1, p) + LaurentQ.q_power(
        p - n
    ) * pascal_binomial(n - 1, p - 1)


def test_q_binomial_frozen():
    assert q_binomial(4, 2) == LQ({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert q_binomial(2, 1) == q_int(2)
    assert q_binomial(5, 0) == LQ_ONE
    assert q_binomial(3, 5) == LQ_ZERO


def test_q_binomial_against_pascal_oracle():
    for n in range(0, 9):
        for p in range(0, n + 1):
            assert q_binomial(n, p) == pascal_binomial(n, p)


def test_q_binomial_matches_the_factorial_quotient():
    # the table against the definition, out-of-range p included
    for n in range(0, 11):
        for p in range(-2, n + 3):
            got = q_binomial(n, p)
            if 0 <= p <= n:
                assert got == q_factorial(n).exact_div(q_factorial(p) * q_factorial(n - p)), (n, p)
            else:
                assert got.is_zero(), (n, p)
    with pytest.raises(ValueError):
        q_binomial(-1, 0)


def test_q_binomial_values_are_never_shared():
    want = {(n, p): LaurentQ(dict(q_binomial(n, p).terms)) for n in range(7) for p in range(-1, n + 2)}
    for (n, p) in want:
        b = q_binomial(n, p)
        assert b is not q_binomial(n, p)
        # derived values are new objects
        b.bar(), b.stretch(3), b + 1, b * b, -b, RatQ(b) * RatQ(b.stretch(2))
        # even a caller that writes into the terms changes only its copy
        b.terms[7] = 5
        b.terms.pop(0, None)
    for (n, p), w in want.items():
        assert q_binomial(n, p) == w, (n, p)


def test_q_binomial_symmetries():
    for n in range(0, 9):
        for p in range(0, n + 1):
            b = q_binomial(n, p)
            assert b.bar() == b
            assert b == q_binomial(n, n - p)
            # q = 1 specialization gives the ordinary binomial
            assert b.eval_at(Fraction(1)) == oint_binomial(n, p)


def oint_binomial(n, p):
    out = 1
    for i in range(p):
        out = out * (n - i) // (i + 1)
    return out


# ---------- LaurentQ ring structure ----------


def test_laurent_non_integer_exponent_raises():
    with pytest.raises(ValueError):
        LQ({1.5: 1})
    with pytest.raises(ValueError):
        LaurentQ.q_power(0.5)
    assert LQ({2: 1}) == LaurentQ.q_power(2)


def test_laurent_basic_arithmetic():
    a = LQ({2: 1, 0: -3})
    b = LQ({0: 3, -1: Fraction(1, 2)})
    assert a + b == LQ({2: 1, -1: Fraction(1, 2)})
    assert a - a == LQ_ZERO
    assert a * LQ_ZERO == LQ_ZERO
    assert (a * b).coeff(1) == Fraction(1, 2)
    assert a * 2 == LQ({2: 2, 0: -6})


def test_laurent_bar_and_stretch():
    a = LQ({3: 2, -1: 1})
    assert a.bar() == LQ({-3: 2, 1: 1})
    assert a.bar().bar() == a
    assert a.stretch(2) == LQ({6: 2, -2: 1})
    assert a.stretch(-1) == a.bar()
    with pytest.raises(ValueError):
        a.stretch(0)


def test_laurent_stretch_composes():
    rng = random.Random(11)
    for _ in range(50):
        a = random_laurent(rng)
        d = rng.choice([-3, -2, -1, 1, 2, 3])
        e = rng.choice([-2, -1, 1, 2])
        assert a.stretch(d).stretch(e) == a.stretch(d * e)


def test_laurent_exact_div():
    num = LQ({2: 1, -2: -1})  # q^2 - q^-2
    den = LQ({1: 1, -1: -1})  # q - q^-1
    assert num.exact_div(den) == q_int(2)
    with pytest.raises(ArithmeticError):
        (num + LQ_ONE).exact_div(den)


def test_laurent_div_roundtrip_random():
    rng = random.Random(23)
    for _ in range(100):
        a = random_laurent(rng, nonzero=True)
        b = random_laurent(rng, nonzero=True)
        assert (a * b).exact_div(b) == a


def test_laurent_gcd_values():
    # the monic gcd in Q[q], q-power units cleared from either side
    q_minus_1 = LQ({1: 1, 0: -1})
    a = q_minus_1 * LQ({1: 1, 0: 2})
    b = q_minus_1 * LQ({1: 1, 0: 3})
    assert LaurentQ.gcd(a, b) == q_minus_1
    assert LaurentQ.gcd(a * LQ({-3: 1}), b) == q_minus_1
    assert LaurentQ.gcd(b, a * LQ({-3: 1})) == q_minus_1
    assert LaurentQ.gcd(LQ({1: 2, 0: -2}), LQ({1: 4, 0: -4})) == q_minus_1
    assert LaurentQ.gcd(LQ({1: 1, 0: 2}), LQ({1: 1, 0: 3})) == LQ_ONE


def test_laurent_eval_hom():
    rng = random.Random(5)
    for _ in range(100):
        a = random_laurent(rng)
        b = random_laurent(rng)
        q0 = random_q_point(rng)
        assert (a + b).eval_at(q0) == a.eval_at(q0) + b.eval_at(q0)
        assert (a * b).eval_at(q0) == a.eval_at(q0) * b.eval_at(q0)


# ---------- RatQ field structure ----------


def test_ratq_canonical_examples():
    q_minus_1 = LQ({1: 1, 0: -1})
    one_minus_q = LQ({0: 1, 1: -1})
    assert (RatQ(LQ_ONE, q_minus_1) + RatQ(LQ_ONE, one_minus_q)).is_zero()
    # (q^2-1)/(q-1) reduces to q+1
    r = RatQ(LQ({2: 1, 0: -1}), q_minus_1)
    assert r == RatQ(LQ({1: 1, 0: 1}))
    assert r.den.is_one()


def test_ratq_canonical_uniqueness():
    rng = random.Random(7)
    for _ in range(100):
        num = random_laurent(rng)
        den = random_laurent(rng, nonzero=True)
        scale = random_laurent(rng, nonzero=True)
        assert RatQ(num * scale, den * scale) == RatQ(num, den)


def test_ratq_den_normalization():
    r = RatQ(LQ({0: 1}), LQ({3: 2, 1: 4}))
    # denominator is monic with lowest exponent 0
    assert min(r.den.terms) == 0
    assert r.den.coeff(max(r.den.terms)) == 1


def reference_ratq(num: LaurentQ, den: LaurentQ) -> RatQ:
    """num / den by the general path: divide out the polynomial gcd, put
    the q-shift on the numerator, make the denominator monic."""
    fn, sn = num._shifted_coeffs()
    fd, sd = den._shifted_coeffs()
    g = _poly_gcd(fn, fd)
    if len(g) > 1:
        fn, _ = _poly_divmod(fn, g)
        fd, _ = _poly_divmod(fd, g)
    lead = fd[-1]
    return RatQ._raw(
        LaurentQ({i + sn - sd: c / lead for i, c in enumerate(fn) if c}),
        LaurentQ({i: c / lead for i, c in enumerate(fd) if c}),
    )


def test_one_term_denominator_matches_the_gcd_path():
    rng = random.Random(43)
    nums = [LQ_ZERO, LQ_ONE] + [random_laurent(rng) for _ in range(200)]
    for num in nums:
        den = LaurentQ.q_power(rng.randint(-5, 5), random_fraction(rng, nonzero=True))
        got, want = RatQ(num, den), reference_ratq(num, den)
        assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)
        assert all(type(c) is int or c.denominator != 1 for c in got.num.terms.values())
        assert got * den == num


def test_q_monomial_division_takes_no_gcd(monkeypatch):
    calls = []
    gcd = qring._poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(qring, "_poly_gcd", counted)
    for k in range(4):
        for sigma in permutations((1, 2, 3)):
            term_value(2, k, sigma)
    printed = ShuffleAlgebra(builtin_cartan("A2"), orientation="printed")
    assert printed.word_image(parse_word("a1:0 a2:1")).degree == (1, 1)
    checked = ShuffleAlgebra(builtin_cartan("B2"), oracle=True)
    checked.word_image(parse_word("a1:0 a2:1 a2:-1"))
    assert checked.oracle_checks == 2  # a word of three letters makes two products
    assert calls == []
    # control: a denominator of two terms still takes the gcd
    assert RatQ(LQ({2: 1, 0: -1}), LQ({1: 1, 0: -1})) == RatQ(LQ({1: 1, 0: 1}))
    assert calls


def test_ratq_accepts_ratq_parts():
    # RatQ(num, den) is num / den for any coercible parts, RatQ ones included
    rng = random.Random(19)
    for _ in range(40):
        a = random_ratq(rng)
        b = random_ratq(rng, nonzero=True)
        assert RatQ(a) == a
        assert RatQ(a, b) == a / b
        assert RatQ(a, b.num) == a / b.num
        assert RatQ(b.num, b) == b.num / b
        assert RatQ(RatQ(a.num, a.den)) == a
    with pytest.raises(ZeroDivisionError):
        RatQ(RatQ.one(), RatQ.zero())
    with pytest.raises(TypeError):
        RatQ(RatQ.one(), 1.5)


def test_ratq_field_ops():
    rng = random.Random(13)
    for _ in range(60):
        a = random_ratq(rng)
        b = random_ratq(rng, nonzero=True)
        assert (a / b) * b == a
        assert a + (-a) == RatQ.zero()
        assert (a * b).bar() == a.bar() * b.bar()


def test_ratq_eval():
    r = RatQ(LQ({1: 1, -1: 1}))  # q + q^-1
    assert r.eval_at(Fraction(3, 2)) == Fraction(13, 6)
    with pytest.raises(ZeroDivisionError):
        RatQ(LQ_ONE, LQ({1: 1, 0: -1})).eval_at(Fraction(1))


def test_ratq_eval_hom():
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        a = random_ratq(rng)
        b = random_ratq(rng)
        q0 = random_q_point(rng)
        try:
            av, bv = a.eval_at(q0), b.eval_at(q0)
            sv = (a + b).eval_at(q0)
            pv = (a * b).eval_at(q0)
        except ZeroDivisionError:
            continue
        assert sv == av + bv
        assert pv == av * bv
        checked += 1


def test_ratq_pow_and_inverse():
    q = RatQ.q_power(1)
    assert q**-3 == RatQ.q_power(-3)
    assert (q + 1) ** 0 == RatQ.one()
    with pytest.raises(ZeroDivisionError):
        RatQ.zero().inverse()


def test_display():
    assert str(q_int(3)) == "q^2 + 1 + q^-2"
    assert str(LQ({1: Fraction(3, 2), 0: -1})) == "3/2 q - 1"
    assert str(LQ_ZERO) == "0"
