"""Differential tests for the default-orientation shuffle product and
for the rational oracle that checks it.

``ShuffleAlgebra.mul`` builds the product numerator by parabolic divided
differences.  ``interleaving_product`` below is the literal definition:
sum the per-color interleavings, each times the same-color Vandermonde and
the mixed-pair binomials, then divide the Vandermonde back out.  Both are
checked against each other and against the independent rational oracle
``mul_oracle_rational`` on every builtin Cartan type.

The oracle sums its interleaving terms unreduced and reduces once;
``reference_oracle_rational`` is the same sum with every term product
reduced and the sum closed by ``rat_sum``, and both are compared in both
orientations.  The oracle runs a per-degree plan built once per algebra;
``reference_oracle_fraction`` is the loop it replaced, which relabels the
canonical forms of each interleaving and sums with ``fraction_sum``, and
the plan must give the same unreduced numerator and lcd.  With the oracle
on, ``mul`` compares the two sides by cross-multiplying, so it needs no
exact division; the mutation controls show that the comparison still
catches a wrong product, and a plan whose weight for one interleaving
lost an exchange binomial is caught the same way.

The printed orientation multiplies by cancelling the canonical
denominator against the oracle sum's by factor count and reducing once.
``reference_mul_rational`` is the older chain: reduce the oracle sum,
multiply the canonical denominator in and divide the Vandermonde out one
factor at a time.  Both must give the same verdict and numerator.
"""

import random
from itertools import combinations, product

import pytest

from qshuffle.cartan import builtin_cartan
from qshuffle.cli import main
from qshuffle.poly import MultiLaurent, NotDivisible, grassmannian_steps, placements, zvar
from qshuffle.qring import RatQ
from qshuffle.ratfun import BinomialFactor, RatFun, fraction_sum, rat_sum, relabel_fraction
from qshuffle.shuffle import (
    ORIENTATIONS,
    ClosureViolation,
    ShuffleAlgebra,
    ShuffleElement,
    format_word,
    parse_word,
)

from tuple_kernel import MultiLaurent as Reference
from tuple_kernel import expanded, from_packed, to_packed

TYPES = ("A1", "A2", "B2", "C3", "B3", "D4", "G2")
ALL_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2")


def interleaving_product(alg, f, g):
    """Reference product: sum over interleavings of the relabelled
    numerators times every pair binomial, divided by the Vandermonde."""
    total = tuple(a + b for a, b in zip(f.degree, g.degree))
    flat = alg.flat_vars(total)
    acc = MultiLaurent.zero(flat)
    for fmap, gmap, fset in alg._interleavings(f.degree, g.degree):
        term = f.numerator.relabel(fmap) * g.numerator.relabel(gmap)
        for u, v in combinations(flat, 2):
            ufirst = u in fset
            if ufirst == (v in fset):
                if u.color == v.color:
                    term = term.mul_binomial(1, u, -1, v)
            else:
                p = RatQ.q_power(alg.cartan.pairing(u.color, v.color))
                if ufirst:
                    term = term.mul_binomial(1, u, -p, v)
                else:
                    term = term.mul_binomial(p, u, -1, v)
        acc = acc + term
    num = acc
    for u, v in combinations(flat, 2):
        if u.color == v.color:
            try:
                num = num.exact_div_binomial(u, v, RatQ.one())
            except NotDivisible as exc:
                raise ClosureViolation("not divisible by the Vandermonde") from exc
    for c in range(1, alg.cartan.rank + 1):
        if not num.is_symmetric(c):
            raise ClosureViolation(f"not symmetric in color {c}")
    return ShuffleElement(alg.cartan, total, num, check=False)


def reference_oracle_rational(alg, f, g):
    """Reference oracle: the interleaving sum with every term product
    reduced as it is formed and the terms added by ``rat_sum``."""
    total = tuple(a + b for a, b in zip(f.degree, g.degree))
    flat = alg.flat_vars(total)
    fr = alg.to_rational(f)
    gr = alg.to_rational(g)
    parts = []
    for fmap, gmap, fset in alg._interleavings(f.degree, g.degree):
        term = fr.relabel(fmap) * gr.relabel(gmap)
        for u, v in combinations(flat, 2):
            if (u in fset) or (v not in fset):
                continue
            p = RatQ.q_power(alg.cartan.pairing(u.color, v.color))
            term = term * RatFun(
                MultiLaurent.var_power(u, 1, p) - MultiLaurent.var_power(v, 1),
                {BinomialFactor(u, v, p): 1},
            )
        parts.append(term)
    return rat_sum(parts)


def reference_oracle_fraction(alg, f, g):
    """Reference unreduced oracle sum (N, lcd): per interleaving, relabel
    the canonical forms V A / D of f and g, multiply them, multiply in the
    exchange binomial of every inverted mixed pair and add its factor to
    the denominator; sum the terms over their lcm with ``fraction_sum``."""
    total = tuple(a + b for a, b in zip(f.degree, g.degree))
    flat = alg.flat_vars(total)
    sides = [(alg._canonical_numerator(x), alg._form(x.degree)[0]) for x in (f, g)]
    terms = []
    for fmap, gmap, fset in alg._interleavings(f.degree, g.degree):
        (fnum, fden), (gnum, gden) = (
            relabel_fraction(*side, mapping) for side, mapping in zip(sides, (fmap, gmap))
        )
        # disjoint: every factor pairs two variables of the same operand
        num, den = fnum * gnum, {**fden, **gden}
        for u, v in combinations(flat, 2):
            if (u in fset) or (v not in fset):
                continue
            # u from the right factor precedes v from the left: inverted
            p = alg.cartan.pairing(u.color, v.color)
            num = num._mul_binomial(u, (1, p), v, (-1, 0))
            fac = BinomialFactor.from_parts(u, v, p)
            den[fac] = den.get(fac, 0) + 1
        terms.append((num, den))
    return fraction_sum(terms)


def planned_oracle_fraction(alg, f, g):
    return alg._oracle_fraction(f, g, alg._plan(f.degree, g.degree, True))


def reference_mul_rational(alg, f, g):
    """Reference printed-orientation product: the reduced oracle sum times
    the unit and the canonical denominator, over the Vandermonde, with one
    reduction per factor (``RatFun.mul_factor``/``div_factor``)."""
    total = tuple(a + b for a, b in zip(f.degree, g.degree))
    den, _, unit = alg._form(total)
    r = alg.mul_oracle_rational(f, g)
    a = RatFun(r.num.scale(unit), r.den)
    for fac, m in den.items():
        a = a.mul_factor(fac, m)
    for u, v in combinations(alg.flat_vars(total), 2):
        if u.color == v.color:
            a = a.div_factor(BinomialFactor(u, v, RatQ.one()))
    if not a.is_polynomial():
        raise ClosureViolation(
            "extracted numerator keeps denominator factors "
            f"{[str(x) for x in sorted(a.den)]}"
        )
    for c in range(1, alg.cartan.rank + 1):
        if not a.num.is_symmetric(c):
            raise ClosureViolation(f"product numerator not symmetric in color {c}")
    return ShuffleElement(alg.cartan, total, a.num, check=False)


def random_word(rng, rank, length):
    return [(rng.randrange(1, rank + 1), rng.randrange(-2, 3)) for _ in range(length)]


def assert_product_agrees(alg, f, g, label):
    got = alg.mul(f, g)
    assert got == interleaving_product(alg, f, g), label
    assert alg.to_rational(got) == alg.mul_oracle_rational(f, g), label
    return got


@pytest.mark.parametrize("name", TYPES)
def test_word_image_steps_match_reference_and_oracle(name):
    cartan = builtin_cartan(name)
    alg = ShuffleAlgebra(cartan)
    rng = random.Random(f"word-steps-{name}")
    for _ in range(4):
        word = random_word(rng, cartan.rank, rng.randrange(2, 5))
        out = alg.unit()
        for color, mode in word:
            out = assert_product_agrees(
                alg, out, alg.generator(color, mode), (name, format_word(word))
            )
        assert out == alg.word_image(word)


@pytest.mark.parametrize("name", TYPES)
def test_general_products_match_reference_and_oracle(name):
    cartan = builtin_cartan(name)
    alg = ShuffleAlgebra(cartan)
    rng = random.Random(f"general-{name}")
    for _ in range(3):
        u = random_word(rng, cartan.rank, rng.randrange(1, 3))
        v = random_word(rng, cartan.rank, rng.randrange(1, 3))
        assert_product_agrees(
            alg, alg.word_image(u), alg.word_image(v), (name, format_word(u), format_word(v))
        )


@pytest.mark.parametrize("name", TYPES)
def test_two_by_two_in_one_color(name):
    # n_c = m_c = 2: four divided-difference steps in the same color
    cartan = builtin_cartan(name)
    alg = ShuffleAlgebra(cartan)
    rng = random.Random(f"two-by-two-{name}")
    c = rng.randrange(1, cartan.rank + 1)
    u = [(c, rng.randrange(-2, 3)), (c, rng.randrange(-2, 3))]
    v = [(c, rng.randrange(-2, 3)), (c, rng.randrange(-2, 3))]
    if cartan.rank > 1:
        v.append((c % cartan.rank + 1, rng.randrange(-2, 3)))
    f, g = alg.word_image(u), alg.word_image(v)
    assert f.degree[c - 1] == 2 and g.degree[c - 1] == 2
    assert_product_agrees(alg, f, g, (name, format_word(u), format_word(v)))


def test_divided_difference_order_is_pinned():
    assert grassmannian_steps(1, 1) == [1]
    assert grassmannian_steps(2, 1) == [2, 1]
    assert grassmannian_steps(1, 2) == [1, 2]
    assert grassmannian_steps(2, 2) == [2, 1, 3, 2]
    assert grassmannian_steps(3, 0) == grassmannian_steps(0, 3) == []
    for n in range(4):
        for m in range(4):
            assert len(grassmannian_steps(n, m)) == n * m


def test_reversed_order_gives_another_polynomial():
    # control: the order matters, so pinning it is meaningful
    alg = ShuffleAlgebra(builtin_cartan("A1"))
    f = alg.word_image([(1, 1), (1, -1)])
    g = alg.generator(1, 2)
    x1, x2, y = zvar(1, 1), zvar(1, 2), zvar(1, 3)
    F = f.numerator * g.numerator.relabel({x1: y})
    for u in (x1, x2):
        F = F.mul_binomial(1, u, -RatQ.q_power(2), y)
    pinned, other = F, F
    for i in grassmannian_steps(2, 1):
        pinned = pinned.divided_difference(zvar(1, i), zvar(1, i + 1))
    for i in reversed(grassmannian_steps(2, 1)):
        other = other.divided_difference(zvar(1, i), zvar(1, i + 1))
    assert pinned == alg.mul(f, g).numerator
    assert other != pinned


def test_g2_length_four_chain():
    g2 = builtin_cartan("G2")
    alg = ShuffleAlgebra(g2)
    assert 1 - g2.a(2, 1) == 4
    word = [(2, 0), (2, 1), (1, 0), (2, -1), (2, 0)]
    el = alg.word_image(word)
    assert el.degree == (1, 4)
    ref = alg.unit()
    for color, mode in word:
        ref = interleaving_product(alg, ref, alg.generator(color, mode))
    assert el == ref
    assert alg.wheel_applicable(el, 2, 1)
    assert alg.wheel_check(el, 2, 1)
    assert alg.wheel_check(el, 2, 1, i_indices=(4, 2, 3, 1))
    assert alg.serre_image(2, 1, (0, 1, -1, 0), 0).is_zero()
    assert alg.serre_image(2, 1, (1, 1, 0, 0), -1).is_zero()


@pytest.mark.parametrize("name", ("A1", "A2", "G2"))
def test_asymmetric_operand_violates_closure_on_either_side(name):
    cartan = builtin_cartan(name)
    alg = ShuffleAlgebra(cartan)
    degree = (2,) + (0,) * (cartan.rank - 1)
    bad = ShuffleElement.raw(cartan, degree, MultiLaurent.var_power(zvar(1, 1), 1))
    partners = [
        alg.generator(1, 0),
        alg.generator(cartan.rank, 1),
        alg.word_image([(1, 0), (1, 1)]),
    ]
    for other in partners:
        with pytest.raises(ClosureViolation):
            alg.mul(bad, other)
        with pytest.raises(ClosureViolation):
            alg.mul(other, bad)


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("name", TYPES)
def test_oracle_matches_reduced_reference(name, orientation):
    # the operands are symmetric numerators built on the default
    # orientation, so printed products that would not close are covered too
    cartan = builtin_cartan(name)
    build = ShuffleAlgebra(cartan)
    alg = ShuffleAlgebra(cartan, orientation=orientation)
    rng = random.Random(f"oracle-reference-{name}-{orientation}")
    # word lengths up to 3, at most four letters in all: a printed A1
    # product of lengths 3 and 2 already takes seconds on either side
    for lf, lg in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)):
        u = random_word(rng, cartan.rank, lf)
        v = random_word(rng, cartan.rank, lg)
        f, g = build.word_image(u), build.word_image(v)
        assert alg.mul_oracle_rational(f, g) == reference_oracle_rational(alg, f, g), (
            format_word(u),
            format_word(v),
        )


def _scaled(num):
    return num.scale(2)


def _one_term_dropped(num):
    ref = from_packed(num)
    del ref.terms[min(ref.terms)]
    return to_packed(ref)


def _q_inverted(num):
    terms = expanded(num)
    return to_packed(Reference._raw(num.vars, {key[:-1] + (-key[-1],): c for key, c in terms.items()}))


@pytest.mark.parametrize("mutate", (_scaled, _one_term_dropped, _q_inverted))
@pytest.mark.parametrize("name", ("A2", "B2", "G2"))
def test_oracle_check_catches_mutated_products(name, mutate, monkeypatch):
    cartan = builtin_cartan(name)
    plain = ShuffleAlgebra(cartan)
    f = plain.word_image([(1, 0), (2, 1)])
    g = plain.word_image([(2, -1), (1, 1)])
    true = plain.mul(f, g)
    exact = plain._mul_polynomial

    def mutated(f, g, plan):
        out = exact(f, g, plan)
        return ShuffleElement.raw(cartan, out.degree, mutate(out.numerator))

    monkeypatch.setattr(plain, "_mul_polynomial", mutated)
    assert plain.mul(f, g) != true  # the mutation changes the product
    alg = ShuffleAlgebra(cartan, oracle=True)
    monkeypatch.setattr(alg, "_mul_polynomial", mutated)
    with pytest.raises(ArithmeticError):
        alg.mul(f, g)
    assert alg.oracle_checks == 0


def test_oracle_mode_product_needs_no_exact_division(monkeypatch):
    calls = []
    divide = MultiLaurent._exact_div_binomial

    def counted(self, *args):
        calls.append(args)
        return divide(self, *args)

    monkeypatch.setattr(MultiLaurent, "_exact_div_binomial", counted)
    alg = ShuffleAlgebra(builtin_cartan("B2"), oracle=True)
    word = parse_word("a1:0 a2:1 a2:-1 a1:1")
    el = alg.word_image(word)
    assert alg.oracle_checks == 3  # a word of four letters makes three products
    assert calls == []
    # control: the counter sees the divisions of the public oracle's reduction
    f, g = alg.word_image(word[:3]), alg.generator(1, 1)
    got = alg.mul_oracle_rational(f, g)
    assert calls
    assert got == alg.to_rational(el)


def test_printed_orientation_still_violates_closure(capsys):
    alg = ShuffleAlgebra(builtin_cartan("A2"), orientation="printed", oracle=True)
    with pytest.raises(ClosureViolation):
        alg.word_image(parse_word("a2:0 a1:0"))
    assert alg.word_image(parse_word("a1:0 a2:0")).degree == (1, 1)
    assert main(["product", "--cartan", "A2", "--orientation", "printed", "a2:0 a1:0"]) == 3


def _outcome(mul, alg, f, g):
    """The product numerator, or the ClosureViolation message when the
    product does not close."""
    try:
        return mul(alg, f, g).numerator
    except ClosureViolation as exc:
        return str(exc)


@pytest.mark.parametrize("name", ("A1", "A2", "B2", "G2", "C3", "D4"))
def test_printed_product_matches_reference_chain(name):
    # same verdict, same numerator, and a violation names the same factors
    cartan = builtin_cartan(name)
    build = ShuffleAlgebra(cartan)
    alg = ShuffleAlgebra(cartan, orientation="printed")
    rng = random.Random(f"printed-reference-{name}")
    pairs = []
    for lf, lg in ((1, 1), (1, 2), (2, 1), (2, 2)):
        u = random_word(rng, cartan.rank, lf)
        v = random_word(rng, cartan.rank, lg)
        pairs.append((build.word_image(u), build.word_image(v)))
    if cartan.rank > 1:  # an ordered cross-colour product closes
        pairs.append((alg.generator(1, 0), alg.generator(cartan.rank, 1)))
    closed = []
    for f, g in pairs:
        got = _outcome(ShuffleAlgebra.mul, alg, f, g)
        assert got == _outcome(reference_mul_rational, alg, f, g), (f, g)
        closed.append(not isinstance(got, str))
    if cartan.rank == 1:
        assert not any(closed)  # in one colour no printed product here closes
    else:
        assert closed[-1]


def test_printed_product_reduces_once(monkeypatch):
    # D cancels against the oracle denominator by count, so only what is
    # left is divided: each same-colour difference once that succeeds and
    # once that fails
    build = ShuffleAlgebra(builtin_cartan("A1"))
    alg = ShuffleAlgebra(builtin_cartan("A1"), orientation="printed")
    f = build.word_image(parse_word("a1:-2 a1:1"))
    g = build.word_image(parse_word("a1:2 a1:2"))
    calls = []
    divide = MultiLaurent._exact_div_binomial

    def counted(self, *args):
        calls.append(args)
        return divide(self, *args)

    monkeypatch.setattr(MultiLaurent, "_exact_div_binomial", counted)
    with pytest.raises(ClosureViolation):
        alg.mul(f, g)
    assert len(calls) < 20
    # control: the reference chain divides again after every factor it adds
    count = len(calls)
    with pytest.raises(ClosureViolation):
        reference_mul_rational(alg, f, g)
    assert len(calls) - count > 100


def test_printed_oracle_product_sums_once(monkeypatch):
    # the printed product is read off the oracle sum and checked against
    # that same sum: one interleaving sum per product, not two
    sums = []
    summed = ShuffleAlgebra._oracle_fraction

    def counted(self, f, g, plan):
        sums.append(1)
        return summed(self, f, g, plan)

    monkeypatch.setattr(ShuffleAlgebra, "_oracle_fraction", counted)
    alg = ShuffleAlgebra(builtin_cartan("A2"), "printed", oracle=True)
    el = alg.word_image([(1, 0), (2, 0)])  # one product
    assert len(sums) == 1
    assert alg.oracle_checks == 1
    # the shared sum is left as it was: the check still passes and the
    # public oracle agrees with the product
    assert alg.to_rational(el) == alg.mul_oracle_rational(alg.generator(1, 0), alg.generator(2, 0))


# ---------- per-degree plans ----------


def assert_flat_registry(alg, el):
    # the plans' slot maps read an element's variables in this order
    assert el.numerator.vars == tuple(alg.flat_vars(el.degree)), el


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("name", ALL_TYPES)
def test_planned_oracle_sum_matches_the_interleaving_loop(name, orientation):
    # unreduced: a plan whose lcd carried an extra factor would still give
    # the same reduced sum
    cartan = builtin_cartan(name)
    build = ShuffleAlgebra(cartan)
    alg = ShuffleAlgebra(cartan, orientation=orientation)
    rng = random.Random(f"planned-oracle-{name}-{orientation}")
    for lf, lg in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)):
        u = random_word(rng, cartan.rank, lf)
        v = random_word(rng, cartan.rank, lg)
        f, g = build.word_image(u), build.word_image(v)
        num, lcd = planned_oracle_fraction(alg, f, g)
        want_num, want_lcd = reference_oracle_fraction(alg, f, g)
        label = (format_word(u), format_word(v))
        assert lcd == want_lcd, label
        assert num == want_num, label


@pytest.mark.parametrize("name", ALL_TYPES)
def test_warm_plans_give_what_cold_plans_give(name):
    cartan = builtin_cartan(name)
    warm = ShuffleAlgebra(cartan, oracle=True)
    rng = random.Random(f"warm-plans-{name}")
    for _ in range(4):
        u = random_word(rng, cartan.rank, rng.randrange(1, 3))
        v = random_word(rng, cartan.rank, rng.randrange(1, 3))
        # the warm algebra builds the plan on other modes, same degrees
        warm.mul(*(warm.word_image([(c, x + 1) for c, x in w]) for w in (u, v)))
        f, g = warm.word_image(u), warm.word_image(v)
        assert (f.degree, g.degree) in warm._plans
        cold = ShuffleAlgebra(cartan, oracle=True)
        got = warm.mul(f, g)
        assert got == cold.mul(cold.word_image(u), cold.word_image(v)), (format_word(u), format_word(v))
        assert_flat_registry(warm, got)


@pytest.mark.parametrize("name", ("A2", "B2", "G2"))
def test_callers_cannot_corrupt_the_plans(name):
    cartan = builtin_cartan(name)
    alg = ShuffleAlgebra(cartan, oracle=True)
    f = alg.word_image([(1, 0), (2, 1)])
    g = alg.word_image([(2, -1), (1, 1)])
    first = alg.mul(f, g)
    first_oracle = alg.mul_oracle_rational(f, g)
    # every returned denominator is the caller's own dict
    for degree in (f.degree, g.degree, first.degree):
        den = alg.canonical_denominator(degree)
        den[next(iter(den))] += 3
        den[BinomialFactor.from_parts(zvar(1, 1), zvar(2, 1), 7)] = 1
    for r in (alg.mul_oracle_rational(f, g), alg.to_rational(f), alg.to_rational(first)):
        r.den.clear()
    checks = alg.oracle_checks
    assert alg.mul(f, g) == first
    assert alg.oracle_checks == checks + 1
    assert alg.mul_oracle_rational(f, g) == first_oracle
    fresh = ShuffleAlgebra(cartan, oracle=True)
    assert alg.to_rational(first) == fresh.to_rational(first) == first_oracle


@pytest.mark.parametrize("name", ALL_TYPES)
def test_elements_keep_the_flat_registry(name):
    cartan = builtin_cartan(name)
    alg = ShuffleAlgebra(cartan, oracle=True)
    assert_flat_registry(alg, alg.unit())
    for c in range(1, cartan.rank + 1):
        assert_flat_registry(alg, alg.generator(c, -1))
    degree = (2,) + (0,) * (cartan.rank - 1)
    # a numerator over fewer variables, and over more with exponent 0
    assert_flat_registry(alg, ShuffleElement.raw(cartan, degree, MultiLaurent.var_power(zvar(1, 1), 1)))
    wide = MultiLaurent.var_power(zvar(1, 1), 1).with_vars([zvar(1, 2), zvar(1, 3)])
    assert_flat_registry(alg, ShuffleElement.raw(cartan, degree, wide))
    rng = random.Random(f"flat-registry-{name}")
    for _ in range(3):
        f = alg.word_image(random_word(rng, cartan.rank, rng.randrange(1, 3)))
        g = alg.word_image(random_word(rng, cartan.rank, rng.randrange(1, 3)))
        for el in (f, g, alg.mul(f, g)):
            assert_flat_registry(alg, el)
    assert_flat_registry(alg, alg.mul(alg.unit(), alg.unit()))
    if cartan.rank > 1:  # a printed product that closes
        printed = ShuffleAlgebra(cartan, orientation="printed")
        assert_flat_registry(printed, printed.mul(alg.generator(1, 0), alg.generator(cartan.rank, 1)))


def _drop_one_exchange_binomial(alg, f, g):
    """Divide one exchange binomial (q^p z_u - z_v) = q^p (z_u - q^-p z_v)
    out of the weight of the first interleaving of the plan's oracle half
    that has an inverted pair, and certify the weights again."""
    plan = alg._plans[f.degree, g.degree]
    (pairs, _), lcd, check = plan.oracle
    for k, (_, _, fset) in enumerate(alg._interleavings(f.degree, g.degree)):
        inverted = [(u, v) for u, v in combinations(plan.vars, 2) if u not in fset and v in fset]
        if inverted:
            break
    u, v = inverted[0]
    c = RatQ.q_power(-alg.cartan.pairing(u.color, v.color))
    pairs = [(src, weight) for src, weight, _ in pairs]
    src, weight = pairs[k]
    pairs[k] = (src, weight.exact_div_binomial(u, v, c).scale(c))
    plan.oracle = (placements(pairs), lcd, check)


@pytest.mark.parametrize("name", ("A1", "A2", "B2", "G2"))
def test_a_broken_plan_is_caught(name):
    cartan = builtin_cartan(name)
    build = ShuffleAlgebra(cartan)
    f = build.word_image([(1, 0), (cartan.rank, 1)])
    g = build.generator(1, -1)
    alg = ShuffleAlgebra(cartan, oracle=True)
    alg.mul(f, g)
    checks = alg.oracle_checks
    _drop_one_exchange_binomial(alg, f, g)
    with pytest.raises(ArithmeticError):
        alg.mul(f, g)
    assert alg.oracle_checks == checks
    # control: the product half is untouched, so without the oracle the
    # product still comes out right
    alg.oracle = False
    assert alg.mul(f, g) == build.mul(f, g)
    # the printed orientation reads its product off the broken sum
    printed = ShuffleAlgebra(cartan, orientation="printed")
    before = _outcome(ShuffleAlgebra.mul, printed, f, g)
    _drop_one_exchange_binomial(printed, f, g)
    after = _outcome(ShuffleAlgebra.mul, printed, f, g)
    assert after != before


def test_plans_are_built_once_per_pair_of_degrees(monkeypatch):
    builds = []
    for half in ("_product_plan", "_oracle_plan"):
        method = getattr(ShuffleAlgebra, half)

        def counted(self, n, m, method=method, half=half):
            builds.append((half, n, m))
            return method(self, n, m)

        monkeypatch.setattr(ShuffleAlgebra, half, counted)
    alg = ShuffleAlgebra(builtin_cartan("B2"), oracle=True)
    assert alg.serre_image(2, 1, (0, 1, 1), 1).is_zero()
    # 17 products on 8 pairs of degrees: (0,k) x (0,1) for k = 1, 2,
    # (0,k) x (1,0) for k = 1..3 and (1,k) x (0,1) for k = 0..2
    assert alg.oracle_checks == 17
    assert len(builds) == 16
    assert len(set(builds)) == 16 and len(alg._plans) == 8
    # a second alternator of the same shape builds nothing
    assert alg.serre_image(2, 1, (-1, 2, 2), 0).is_zero()
    assert alg.oracle_checks == 34
    assert len(builds) == 16


def _degree_pairs(rank, top):
    """Pairs (n, m) of nonzero degrees of the given rank with |n| + |m| <= top."""
    degrees = [d for d in product(range(top + 1), repeat=rank) if 0 < sum(d) < top]
    return [(n, m) for n in degrees for m in degrees if sum(n) + sum(m) <= top]


@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_interleavings_never_flip_a_canonical_factor(orientation):
    # an interleaving keeps each operand's variable order and variables
    # sort by colour first, so the oracle plan relabels every canonical
    # factor without a unit: every builtin type, degree pairs up to total
    # degree 4
    relabels = 0
    for name in ALL_TYPES:
        alg = ShuffleAlgebra(builtin_cartan(name), orientation=orientation)
        for n, m in _degree_pairs(alg.cartan.rank, 4):
            forms = alg.canonical_denominator(n), alg.canonical_denominator(m)
            for fmap, gmap, _ in alg._interleavings(n, m):
                for canon, mapping in zip(forms, (fmap, gmap)):
                    for fac in canon:
                        nf, unit = fac.relabel(mapping)
                        assert unit.is_one() and nf.i < nf.j, (name, n, m, fac)
                        relabels += 1
    assert relabels == 3834
