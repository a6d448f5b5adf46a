"""Shuffle product, canonical forms, Serre and wheel checks."""

import random
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from qshuffle import shuffle
from qshuffle.cartan import builtin_cartan
from qshuffle.poly import MultiLaurent, aux_var, zvar
from qshuffle.qring import LaurentQ, RatQ, q_binomial
from qshuffle.ratfun import BinomialFactor, RatFun, factor_product
from qshuffle.shuffle import (
    ClosureViolation,
    ShuffleAlgebra,
    ShuffleElement,
    format_word,
    parse_word,
)

A2 = builtin_cartan("A2")
B2 = builtin_cartan("B2")
G2 = builtin_cartan("G2")


def qp(e, c=1):
    return RatQ.q_power(e, c)


def random_word(rng, rank, length):
    return [(rng.randrange(1, rank + 1), rng.randrange(-2, 3)) for _ in range(length)]


def test_unit_and_generator():
    alg = ShuffleAlgebra(A2)
    one = alg.unit()
    assert one.degree == (0, 0)
    assert one.numerator == MultiLaurent.constant(1)
    g = alg.generator(2, -3)
    assert g.degree == (0, 1)
    assert g.numerator == MultiLaurent.var_power(zvar(2, 1), -3)
    with pytest.raises(ValueError):
        alg.generator(3, 0)
    assert alg.mul(one, g) == g
    assert alg.mul(g, one) == g
    assert alg.word_image([]) == one


def test_same_color_square_numerator():
    # the square of a degree-one element picks up 1 + q^(2 d_color)
    for cartan, color, exp in [(A2, 1, 2), (B2, 1, 4), (B2, 2, 2), (G2, 1, 6)]:
        alg = ShuffleAlgebra(cartan)
        sq = alg.mul(alg.generator(color, 0), alg.generator(color, 0))
        assert sq.numerator == MultiLaurent.constant(1) + MultiLaurent.constant(
            qp(exp)
        ), (cartan, color)


def test_generator_products_as_rational_functions():
    for cartan in (A2, B2):
        alg = ShuffleAlgebra(cartan)
        p = cartan.pairing(1, 2)
        z, w = zvar(1, 1), zvar(2, 1)
        for n, m in [(0, 0), (2, 1), (-1, 3)]:
            mono = MultiLaurent.monomial({z: n, w: m})
            # ordered product: the canonical factor cancels, a plain monomial
            fw = alg.mul(alg.generator(1, n), alg.generator(2, m))
            assert alg.to_rational(fw) == RatFun(mono)
            # reversed product keeps the exchange ratio (q^p z - w)/(z - q^p w)
            bw = alg.mul(alg.generator(2, m), alg.generator(1, n))
            expected = RatFun(
                mono.mul_binomial(qp(p), z, -1, w), {BinomialFactor(z, w, qp(p)): 1}
            )
            assert alg.to_rational(bw) == expected
        # same-color square: Vandermonde times (1 + q^2d) z1 z2 over the factor
        sq = alg.mul(alg.generator(1, 1), alg.generator(1, 1))
        num = (
            MultiLaurent.monomial({zvar(1, 1): 1, zvar(1, 2): 1})
            .scale(RatQ.one() + qp(2 * cartan.d(1)))
            .mul_binomial(1, zvar(1, 1), -1, zvar(1, 2))
        )
        assert alg.to_rational(sq) == RatFun(
            num, {BinomialFactor(zvar(1, 1), zvar(1, 2), qp(2 * cartan.d(1))): 1}
        )


def test_printed_orientation_same_color_violation():
    alg = ShuffleAlgebra(A2, orientation="printed")
    with pytest.raises(ClosureViolation):
        alg.mul(alg.generator(1, 0), alg.generator(1, 0))


def test_exactly_one_orientation_closes_same_color():
    closed = []
    for orientation in ("product", "printed"):
        alg = ShuffleAlgebra(A2, orientation=orientation)
        try:
            alg.mul(alg.generator(1, 0), alg.generator(1, 0))
            closed.append(orientation)
        except ClosureViolation:
            pass
    assert closed == ["product"]


def test_printed_orientation_cross_color_still_works():
    alg = ShuffleAlgebra(A2, orientation="printed")
    f = alg.mul(alg.generator(1, 2), alg.generator(2, 1))
    # the printed-orientation rational form still reduces to the monomial
    assert alg.to_rational(f) == RatFun(
        MultiLaurent.monomial({zvar(1, 1): 2, zvar(2, 1): 1})
    )


def test_printed_orientation_closure_depends_on_operand_order():
    # f = z11 + z12 closes on the left of a generator and not on the right.
    # Its product-orientation numerator (z11 + z12)(z11 - q^2 z12)/(q^2 z11
    # - z12) is not a polynomial, so a printed product routed through the
    # product orientation would turn the closing product into a violation.
    alg = ShuffleAlgebra(A2, orientation="printed", oracle=True)
    z11, z12 = zvar(1, 1), zvar(1, 2)
    f = ShuffleElement(A2, (2, 0), MultiLaurent.var_power(z11, 1) + MultiLaurent.var_power(z12, 1))
    g = alg.generator(2, 0)
    assert alg.mul(f, g).degree == (2, 1)
    with pytest.raises(ClosureViolation):
        alg.mul(g, f)
    converted = alg.to_rational(f) * RatFun(
        factor_product(ShuffleAlgebra(A2).canonical_denominator((2, 0)))
    )
    assert not converted.div_factor(BinomialFactor(z11, z12, RatQ.one())).is_polynomial()


def test_interleaving_count():
    alg = ShuffleAlgebra(A2)
    picks = list(alg._interleavings((2, 1), (1, 1)))
    assert len(picks) == 3 * 2
    seen = set()
    for fmap, gmap, fset in picks:
        assert len(fmap) == 3 and len(gmap) == 2
        assert fset == frozenset(fmap.values())
        seen.add(tuple(sorted((str(v) for v in fset))))
    assert len(seen) == 6


def test_canonical_denominator_layout():
    alg = ShuffleAlgebra(A2)
    den = alg.canonical_denominator((2, 1))
    expect = {
        BinomialFactor(zvar(1, 1), zvar(1, 2), qp(2)): 1,
        BinomialFactor(zvar(1, 1), zvar(2, 1), qp(-1)): 1,
        BinomialFactor(zvar(1, 2), zvar(2, 1), qp(-1)): 1,
    }
    assert den == expect


def test_symmetric_rational_form():
    alg = ShuffleAlgebra(A2)
    sq = alg.mul(alg.generator(1, 0), alg.generator(1, 0))
    # same-color pairs cancel entirely: a constant
    assert alg.to_symmetric_rational(sq) == RatFun.from_scalar(
        RatQ.one() + qp(2)
    )
    w = alg.word_image(parse_word("a1:0 a1:0 a2:0"))
    got = alg.to_symmetric_rational(w)
    expect = RatFun(
        w.numerator,
        {
            BinomialFactor(zvar(1, 1), zvar(2, 1), RatQ.one()): 1,
            BinomialFactor(zvar(1, 2), zvar(2, 1), RatQ.one()): 1,
        },
    )
    assert got == expect


def test_wheel_example_numerator_and_vanishing():
    alg = ShuffleAlgebra(A2)
    w = alg.word_image(parse_word("a1:0 a1:0 a2:0"))
    x1, x2, y = zvar(1, 1), zvar(1, 2), zvar(2, 1)
    expect = (
        MultiLaurent.constant(RatQ.one() + qp(2))
        * (MultiLaurent.var_power(x1, 1) - MultiLaurent.var_power(y, 1, qp(-1)))
        * (MultiLaurent.var_power(x2, 1) - MultiLaurent.var_power(y, 1, qp(-1)))
    )
    assert w.numerator == expect
    assert alg.wheel_check(w, 1, 2)
    assert alg.wheel_check(w, 1, 2, i_indices=(2, 1))
    # too few alpha variables: vacuously true
    g = alg.generator(1, 0)
    assert alg.wheel_check(g, 1, 2)
    assert not alg.wheel_applicable(g, 1, 2)


def test_wheel_detects_nonvanishing_numerator():
    alg = ShuffleAlgebra(A2)
    fake = ShuffleElement(A2, (2, 1), MultiLaurent.constant(1))
    assert alg.wheel_applicable(fake, 1, 2)
    assert not alg.wheel_check(fake, 1, 2)


def chained_wheel_reference(alg, f, alpha, beta, i_indices, j_index):
    """The wheel substitution one variable at a time, each pass through
    ``MultiLaurent.substitute``: the chained form ``wheel_check`` had
    before it substituted the whole chain in one pass."""
    d, a = alg.cartan.d(alpha), alg.cartan.a(alpha, beta)
    t = aux_var("t")
    out = f.numerator
    for k, i in enumerate(i_indices):
        out = out.substitute(zvar(alpha, i), RatQ.q_power(-2 * d * k), t)
    return out.substitute(zvar(beta, j_index), RatQ.q_power(d * a), t)


def one_pass_wheel(alg, f, alpha, beta, i_indices, j_index):
    d, a = alg.cartan.d(alpha), alg.cartan.a(alpha, beta)
    chain = tuple(zvar(alpha, i) for i in i_indices) + (zvar(beta, j_index),)
    scalars = tuple(qp(-2 * d * k) for k in range(len(i_indices))) + (qp(d * a),)
    return f.numerator.substitute(chain, scalars, aux_var("t"))


def classical_binomial(n, r):
    """Ordinary binomials in place of ``q_binomial``: the Serre alternator
    with these weights does not vanish."""
    return LaurentQ({0: comb(n, r)})


def serre_word_sums(alg, alpha, beta, modes, s):
    """S_r for r = 0..N: the sum over the permutations of the modes of the
    word with a_beta[s] after r alpha letters, every word multiplied out
    letter by letter.  The word-by-word reference for ``serre_image``."""
    images = {}
    sums = []
    for r in range(len(modes) + 1):
        acc = MultiLaurent.zero()
        for perm in permutations(modes):
            word = tuple([(alpha, x) for x in perm[:r]] + [(beta, s)] + [(alpha, x) for x in perm[r:]])
            if word not in images:
                images[word] = alg.word_image(word).numerator
            acc = acc + images[word]
        sums.append(acc)
    return sums


def weighted_serre_sum(alg, alpha, sums, binomial=q_binomial):
    """sum_r (-1)^r binomial(N, r) stretched by d_alpha, times S_r."""
    N, d = len(sums) - 1, alg.cartan.d(alpha)
    acc = MultiLaurent.zero()
    for r, part in enumerate(sums):
        c = RatQ(binomial(N, r).stretch(d))
        acc = acc + part.scale(-c if r % 2 else c)
    return acc


def serre_degree(cartan, alpha, beta, n):
    return tuple(n if c == alpha else 1 if c == beta else 0 for c in range(1, cartan.rank + 1))


def classical_serre_element(alg, alpha, beta, modes, s):
    """The Serre alternator with ordinary binomials: a nonzero element."""
    acc = weighted_serre_sum(alg, alpha, serre_word_sums(alg, alpha, beta, modes, s), classical_binomial)
    return ShuffleElement.raw(alg.cartan, serre_degree(alg.cartan, alpha, beta, len(modes)), acc)


def test_one_pass_wheel_matches_chained_substitution():
    rng = random.Random(7117)
    cases = []
    for tag in ("A2", "B2", "G2", "B3", "D4"):
        alg = ShuffleAlgebra(builtin_cartan(tag))
        rank = alg.cartan.rank
        for _ in range(10):
            # two colors per word, so that most color pairs can host a wheel
            colors = rng.sample(range(1, rank + 1), 2)
            word = [(rng.choice(colors), rng.randrange(-1, 2)) for _ in range(rng.randint(2, 4))]
            cases.append((alg, alg.word_image(word)))
    a2, b2, g2 = ShuffleAlgebra(A2), ShuffleAlgebra(B2), ShuffleAlgebra(G2)
    sym = MultiLaurent.var_power(zvar(1, 1), 1) + MultiLaurent.var_power(zvar(1, 2), 1)
    cases += [
        # nonvanishing controls: numerators that are no image of a word
        (a2, ShuffleElement(A2, (2, 1), MultiLaurent.constant(1))),
        (a2, ShuffleElement(A2, (2, 2), sym)),
        (b2, ShuffleElement.raw(B2, (3, 3), sym)),
        (g2, ShuffleElement(G2, (4, 4), MultiLaurent.constant(1))),
        (a2, classical_serre_element(a2, 1, 2, (1, -1), 0)),
        (b2, classical_serre_element(b2, 2, 1, (0, 1, 1), 1)),
        (b2, classical_serre_element(b2, 1, 2, (0, 1), 0)),
    ]
    applicable = nonvanishing = 0
    for alg, f in cases:
        rank = alg.cartan.rank
        for alpha in range(1, rank + 1):
            for beta in range(1, rank + 1):
                if alpha == beta or not alg.wheel_applicable(f, alpha, beta):
                    continue
                chain = 1 - alg.cartan.a(alpha, beta)
                picks = [tuple(range(1, chain + 1))]
                picks.append(tuple(rng.sample(range(1, f.degree[alpha - 1] + 1), chain)))
                for i_indices in picks:
                    j_index = rng.randint(1, f.degree[beta - 1])
                    ref = chained_wheel_reference(alg, f, alpha, beta, i_indices, j_index)
                    assert one_pass_wheel(alg, f, alpha, beta, i_indices, j_index) == ref
                    assert alg.wheel_check(f, alpha, beta, i_indices, j_index) == ref.is_zero()
                    applicable += 1
                    nonvanishing += not ref.is_zero()
    assert applicable > 60 and nonvanishing >= 8, (applicable, nonvanishing)


def test_wheel_argument_validation():
    alg = ShuffleAlgebra(A2)
    w = alg.word_image(parse_word("a1:0 a1:0 a2:0"))
    with pytest.raises(ValueError):
        alg.wheel_check(w, 1, 1)
    with pytest.raises(ValueError):
        alg.wheel_check(w, 1, 2, i_indices=(1, 1))
    with pytest.raises(ValueError):
        alg.wheel_check(w, 1, 2, i_indices=(1, 3))
    with pytest.raises(ValueError):
        alg.wheel_check(w, 1, 2, j_index=2)
    # an index of the wrong type names no variable
    with pytest.raises(ValueError):
        alg.wheel_check(w, 1, 2, i_indices=(1.0, 2.0))
    with pytest.raises(ValueError):
        alg.wheel_check(w, 1, 2, j_index=1.0)


def test_serre_relations_vanish_spot():
    alg = ShuffleAlgebra(A2)
    for modes in [(0, 0), (1, -1), (1, 1)]:
        for s in (-1, 0, 1):
            assert alg.serre_image(1, 2, modes, s).is_zero()
    balg = ShuffleAlgebra(B2)
    assert balg.serre_image(2, 1, (0, 1, 0), 1).is_zero()
    assert balg.serre_image(1, 2, (0, 1), 0).is_zero()


def test_serre_argument_validation():
    alg = ShuffleAlgebra(A2)
    with pytest.raises(ValueError):
        alg.serre_image(1, 1, (0, 0), 0)
    with pytest.raises(ValueError):
        alg.serre_image(1, 2, (0, 0, 0), 0)


def test_serre_needs_the_q_binomial():
    # dropping the q-stretch of the middle coefficient breaks the relation:
    # reconstruct the r-sum with plain binomial coefficients instead
    alg = ShuffleAlgebra(A2)
    assert not classical_serre_element(alg, 1, 2, (1, -1), 0).is_zero()


# ---------- the Serre alternator by prefix sums ----------

SERRE_TYPES = ("A2", "A3", "B2", "B3", "C3", "D4", "G2")


def serre_pairs(tag):
    """Every ordered pair of colors of a builtin type with a_(alpha,beta) != 0."""
    cartan = builtin_cartan(tag)
    return [
        (alpha, beta)
        for alpha, beta in permutations(range(1, cartan.rank + 1), 2)
        if cartan.a(alpha, beta)
    ]


def serre_mode_vectors(n):
    """(modes, s) with all modes equal, all distinct, and one mode repeated
    (all equal again when n = 2)."""
    rest = tuple(range(-1, n - 2))
    return [((1,) * n, 0), (tuple(range(-1, n - 1)), 1), (rest[-1:] + rest, -1)]


@pytest.mark.parametrize("tag", SERRE_TYPES)
def test_serre_image_matches_the_word_by_word_sum(tag, monkeypatch):
    # the q-binomial alternators vanish on both sides; the classical weights
    # make every case a nonzero control
    alg = ShuffleAlgebra(builtin_cartan(tag))
    cases = nonzero = 0
    for alpha, beta in serre_pairs(tag):
        n = 1 - alg.cartan.a(alpha, beta)
        for modes, s in serre_mode_vectors(n):
            sums = serre_word_sums(alg, alpha, beta, modes, s)
            for binomial in (q_binomial, classical_binomial):
                monkeypatch.setattr(shuffle, "q_binomial", binomial)
                got = alg.serre_image(alpha, beta, modes, s)
                want = weighted_serre_sum(alg, alpha, sums, binomial)
                assert got.degree == serre_degree(alg.cartan, alpha, beta, n)
                assert got.numerator == want, (alpha, beta, modes, s, binomial)
                assert got.is_zero() == (binomial is q_binomial)
                cases += 1
                nonzero += not got.is_zero()
    assert nonzero == cases // 2 >= 4


def test_serre_image_products_are_counted():
    # 17 products, each checked by the oracle, where the word-by-word sum
    # made 48: no prefix is multiplied twice and none by the unit
    alg = ShuffleAlgebra(B2, oracle=True)
    assert alg.serre_image(2, 1, (0, 1, 1), 1).is_zero()
    assert alg.oracle_checks == 17


def mode_monomial(alpha, modes):
    """m(z_alpha) = sum over tau in S_N of prod_i z_(alpha,i)^(modes_tau(i))."""
    return sum(
        (
            MultiLaurent.monomial({zvar(alpha, i + 1): modes[t] for i, t in enumerate(tau)})
            for tau in permutations(range(len(modes)))
        ),
        MultiLaurent.zero(),
    )


@pytest.mark.parametrize("tag", SERRE_TYPES)
def test_serre_image_factors_through_the_zero_modes(tag, monkeypatch):
    # serre_image(modes, s) = m(z_alpha) z_beta^s serre_image(0..0, 0) / N!:
    # the alternator symmetrizes the modes, so vanishing at the zero modes
    # is vanishing at every mode vector; the classical weights are the
    # control, where both sides are nonzero
    rng = random.Random(f"serre-zero-modes-{tag}")
    alg = ShuffleAlgebra(builtin_cartan(tag))
    nonzero = 0
    for alpha, beta in serre_pairs(tag):
        n = 1 - alg.cartan.a(alpha, beta)
        modes, s = tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-2, 2)
        for binomial in (q_binomial, classical_binomial):
            monkeypatch.setattr(shuffle, "q_binomial", binomial)
            zero = alg.serre_image(alpha, beta, (0,) * n, 0).numerator
            got = alg.serre_image(alpha, beta, modes, s).numerator
            want = mode_monomial(alpha, modes) * MultiLaurent.var_power(zvar(beta, 1), s) * zero
            assert got.scale(factorial(n)) == want, (alpha, beta, modes, s, binomial)
            nonzero += not got.is_zero()
    assert nonzero == len(serre_pairs(tag))


@pytest.mark.parametrize("tag", SERRE_TYPES)
def test_serre_image_leaves_the_printed_orientation(tag):
    # the printed orientation never closes on an alternator's products
    alg = ShuffleAlgebra(builtin_cartan(tag), orientation="printed")
    for alpha, beta in serre_pairs(tag):
        for modes, s in serre_mode_vectors(1 - alg.cartan.a(alpha, beta)):
            with pytest.raises(ClosureViolation):
                alg.serre_image(alpha, beta, modes, s)


def test_closure_and_twisted_symmetry_random_words():
    rng = random.Random(20240817)
    for cartan in (A2, B2):
        alg = ShuffleAlgebra(cartan)
        for _ in range(12):
            word = random_word(rng, cartan.rank, rng.randrange(1, 5))
            el = alg.word_image(word)
            assert alg.twisted_symmetry_check(el), format_word(word)
            for c in range(1, cartan.rank + 1):
                assert el.numerator.is_symmetric(c)


def test_product_matches_rational_oracle_random():
    rng = random.Random(411)
    alg = ShuffleAlgebra(A2)
    for _ in range(6):
        f = alg.word_image(random_word(rng, 2, rng.randrange(1, 3)))
        g = alg.word_image(random_word(rng, 2, rng.randrange(1, 3)))
        assert alg.to_rational(alg.mul(f, g)) == alg.mul_oracle_rational(f, g)


def test_oracle_mode_checks_every_product():
    alg = ShuffleAlgebra(A2, oracle=True)
    alg.word_image(parse_word("a1:1 a2:0 a1:-1"))
    assert alg.oracle_checks == 2  # a word of three letters makes two products


def test_associativity_samples():
    rng = random.Random(2718)
    for cartan in (builtin_cartan("A1"), A2, B2):
        alg = ShuffleAlgebra(cartan)
        for _ in range(4):
            a = alg.word_image(random_word(rng, cartan.rank, rng.randrange(1, 3)))
            b = alg.word_image(random_word(rng, cartan.rank, 1))
            c = alg.word_image(random_word(rng, cartan.rank, rng.randrange(1, 3)))
            assert alg.mul(alg.mul(a, b), c) == alg.mul(a, alg.mul(b, c))


def test_twisted_symmetry_rejects_asymmetric_numerator():
    alg = ShuffleAlgebra(A2)
    bad = ShuffleElement.raw(A2, (2, 0), MultiLaurent.var_power(zvar(1, 1), 1))
    assert not alg.twisted_symmetry_check(bad)


@pytest.mark.parametrize("orientation", ("product", "printed"))
def test_twisted_symmetry_in_both_orientations(orientation):
    # the exchange factor follows the orientation: symmetric numerators
    # pass and an asymmetric one fails in either
    alg = ShuffleAlgebra(A2, orientation=orientation)
    z11, z12 = zvar(1, 1), zvar(1, 2)
    one = ShuffleElement(A2, (2, 1), MultiLaurent.constant(1))
    pair = ShuffleElement(A2, (2, 1), MultiLaurent.var_power(z11, 1) + MultiLaurent.var_power(z12, 1))
    triple = ShuffleAlgebra(B2).word_image(parse_word("a2:0 a2:1 a2:0"))
    assert alg.twisted_symmetry_check(one)
    assert alg.twisted_symmetry_check(pair)
    assert ShuffleAlgebra(B2, orientation=orientation).twisted_symmetry_check(triple)
    bad = ShuffleElement.raw(A2, (2, 0), MultiLaurent.var_power(z11, 1))
    assert not alg.twisted_symmetry_check(bad)


def reference_symmetric_rational(alg, f):
    """The twist of ``to_symmetric_rational``, one factor at a time."""
    r = alg.to_rational(f)
    for u, v in combinations(alg.flat_vars(f.degree), 2):
        r = r.mul_factor(BinomialFactor(u, v, qp(alg.cartan.pairing(u.color, v.color))))
        r = r.div_factor(BinomialFactor(u, v, RatQ.one()))
    return r


@pytest.mark.parametrize("orientation", ("product", "printed"))
def test_symmetric_rational_matches_factor_by_factor_reference(orientation):
    rng = random.Random(f"symmetric-{orientation}")
    for cartan in (A2, B2, builtin_cartan("D4")):
        build = ShuffleAlgebra(cartan)
        alg = ShuffleAlgebra(cartan, orientation=orientation)
        for _ in range(3):
            f = build.word_image(random_word(rng, cartan.rank, rng.randrange(1, 4)))
            assert alg.to_symmetric_rational(f) == reference_symmetric_rational(alg, f)


def test_non_integer_modes_raise():
    alg = ShuffleAlgebra(A2)
    with pytest.raises(ValueError):
        alg.word_image([(1, 0.5), (1, 1)])
    with pytest.raises(ValueError):
        alg.generator(1, 1.5)
    with pytest.raises(ValueError):
        alg.serre_image(1, 2, (0, 0.5), 0)


def test_element_validation():
    with pytest.raises(ValueError):
        ShuffleElement(A2, (1, 0, 0), MultiLaurent.constant(1))
    with pytest.raises(ValueError):
        ShuffleElement(A2, (1, 0), MultiLaurent.var_power(zvar(2, 1), 1))
    with pytest.raises(ValueError):
        ShuffleElement(A2, (2, 0), MultiLaurent.var_power(zvar(1, 1), 1))
    # a count must be an int: 1.5 must not become 1
    with pytest.raises(ValueError):
        ShuffleElement(A2, (1.5, 0), MultiLaurent.var_power(zvar(1, 1), 1))
    # zero-exponent stray registry entries are harmlessly dropped
    padded = MultiLaurent.constant(1, [zvar(1, 1), aux_var("t")])
    el = ShuffleElement(A2, (1, 0), padded)
    assert el.variables() == (zvar(1, 1),)


def test_mul_rejects_foreign_cartan():
    alg = ShuffleAlgebra(A2)
    other = ShuffleAlgebra(B2)
    with pytest.raises(ValueError):
        alg.mul(alg.generator(1, 0), other.generator(1, 0))


def foreign_product():
    """An A2 product, the B2 algebra that must refuse it, and the A2
    algebra that accepts it."""
    alg = ShuffleAlgebra(A2)
    return alg.mul(alg.generator(1, 0), alg.generator(2, 0)), ShuffleAlgebra(B2), alg


def test_to_rational_rejects_foreign_cartan():
    x, other, alg = foreign_product()
    with pytest.raises(ValueError, match="different Cartan datum"):
        other.to_rational(x)
    assert not alg.to_rational(x).is_zero()


def test_mul_oracle_rational_rejects_foreign_cartan():
    x, other, alg = foreign_product()
    with pytest.raises(ValueError, match="different Cartan datum"):
        other.mul_oracle_rational(x, other.generator(1, 0))
    with pytest.raises(ValueError, match="different Cartan datum"):
        other.mul_oracle_rational(other.generator(1, 0), x)
    assert alg.mul_oracle_rational(x, alg.generator(1, 0)) == alg.to_rational(alg.mul(x, alg.generator(1, 0)))


def test_twisted_symmetry_check_rejects_foreign_cartan():
    x, other, alg = foreign_product()
    with pytest.raises(ValueError, match="different Cartan datum"):
        other.twisted_symmetry_check(x)
    assert alg.twisted_symmetry_check(x)


def test_wheel_check_rejects_foreign_cartan():
    x, other, alg = foreign_product()
    with pytest.raises(ValueError, match="different Cartan datum"):
        other.wheel_check(x, 1, 2)
    assert alg.wheel_check(x, 1, 2)


def test_word_parsing():
    assert parse_word("a1:0 a2:-1 a1:3") == [(1, 0), (2, -1), (1, 3)]
    assert format_word([(1, 0), (2, -1)]) == "a1:0 a2:-1"
    assert parse_word(format_word([(3, -2), (1, 5)])) == [(3, -2), (1, 5)]
    for bad in ("b1:0", "a1", "a0:1", "a1:x", "a:3"):
        with pytest.raises(ValueError):
            parse_word(bad)
