"""The packed kernel against the tuple kernel, and the certificates that
make packing exact.

``tuple_kernel`` keeps the polynomial kernel as it was before monomials
and q-coefficients were packed into integers.  The tests here run the
same inputs through both kernels and compare the packed results decoded
(``expanded``) with the tuple kernel's terms: over seeded pools with
Fraction coefficients, over word images of every builtin Cartan type,
over the pole sums for m <= 3 in both orientations, and on two controls
that do not vanish.  The certification tests force narrow q-digits and
narrow key fields and watch them widen, and check that key order,
equality and hashing do not depend on the packing.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, lcm, prod

import pytest

from qshuffle import poly
from qshuffle.cartan import builtin_cartan
from qshuffle.identities import W, _binom, _zs, build_pole_sum, pole_sum_denominator
from qshuffle.poly import MultiLaurent, NotDivisible, aux_var, grassmannian_steps, zvar
from qshuffle.qring import LaurentQ, RatQ
from qshuffle.shuffle import ShuffleAlgebra

from helpers import exact_bound
from test_poly import DIFF_VARS, random_scalar
from test_scalars import laurent_pool
from tuple_kernel import MultiLaurent as Reference
from tuple_kernel import expanded

TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2")
T = aux_var("t")


def assert_decodes_to(got, want):
    """The packed polynomial got stands for the tuple-kernel one want,
    with no cancelled key stored, a bound that certifies its digits and
    an exponent bound that certifies its key fields."""
    assert all(got.terms.values())
    assert (got.vars, expanded(got)) == (want.vars, want.terms)
    assert exact_bound(got.terms, got.K) <= got.bound < 1 << (got.K - 2)
    assert max((abs(e) for key in got.exponents() for e in key), default=0) <= got.E < 1 << (got.F - 2)


def spec_pool(seed):
    """(registry, {z-key: scalar}) pairs: int, Fraction, LaurentQ and RatQ
    scalars over registries with auxiliary variables, and half-integral
    coefficients that meet as integers."""
    rng = random.Random(seed)
    pool = []
    for _ in range(16):
        vs = tuple(rng.sample(DIFF_VARS, rng.randint(1, 4)))
        terms = {
            tuple(rng.randint(-2, 2) for _ in vs): random_scalar(rng)
            for _ in range(rng.randint(1, 5))
        }
        pool.append((vs, terms))
    z1, z2 = DIFF_VARS[:2]
    pool += [
        ((z1, z2), {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 2), (2, 2): LaurentQ({-3: 1, 4: Fraction(2, 3)})}),
        ((z1,), {(0,): LaurentQ({-1: 2, 1: Fraction(1, 2)})}),
        ((), {(): Fraction(3, 2)}),
        ((z1, z2), {}),
    ]
    return pool


def both(spec):
    return MultiLaurent(*spec), Reference(*spec)


def test_pool_operations_match_the_tuple_kernel():
    rng = random.Random(1601)
    pool = [both(spec) for spec in spec_pool(1601)]
    for f, rf in pool:
        assert_decodes_to(f, rf)
        assert_decodes_to(-f, -rf)
        assert f.term_lines() == rf.term_lines()
        for _ in range(3):
            vi, vj = rng.sample(DIFF_VARS, 2)
            a, b = random_scalar(rng), rng.choice([0, random_scalar(rng)])
            assert_decodes_to(f.mul_binomial(a, vi, b, vj), rf.mul_binomial(a, vi, b, vj))
            assert_decodes_to(f.divided_difference(vi, vj), rf.divided_difference(vi, vj))
            c = RatQ.q_power(rng.randint(-3, 3), rng.choice([1, -1, Fraction(2, 3), Fraction(-5, 2)]))
            assert_decodes_to(f.substitute(vi, c, vj), rf.substitute(vi, c, vj))
            wheel = tuple(rng.sample(DIFF_VARS, 2))
            scalars = tuple(RatQ.q_power(rng.randint(-3, 3), rng.choice([1, Fraction(1, 3)])) for _ in wheel)
            assert_decodes_to(f.substitute(wheel, scalars, T), rf.substitute(wheel, scalars, T))
            d = c if rng.random() < 0.5 else RatQ.q_power(rng.randint(-2, 2))
            divisible, rdivisible = f.mul_binomial(1, vi, -d, vj), rf.mul_binomial(1, vi, -d, vj)
            assert_decodes_to(divisible.exact_div_binomial(vi, vj, d), rdivisible.exact_div_binomial(vi, vj, d))
            s = random_scalar(rng)
            assert_decodes_to(f.scale(s), rf.scale(s))
            swap = {vi: vj, vj: vi}
            assert_decodes_to(f.relabel(swap), rf.relabel(swap))
            assert f.is_symmetric(1) == rf.is_symmetric(1)
        for g, rg in pool:
            assert_decodes_to(f + g, rf + rg)
            assert_decodes_to(f - g, rf - rg)
            assert_decodes_to(f * g, rf * rg)
            assert (f == g) == (rf == rg)


def test_laurent_pool_products_match_the_tuple_kernel():
    # every LaurentQ producer of the scalar tests, as coefficients
    z1, z2 = DIFF_VARS[:2]
    pool = laurent_pool(random.Random(2025))
    for lq in pool[:40]:
        got = MultiLaurent.constant(lq, [z1]).mul_binomial(lq, z1, Fraction(1, 3), z2)
        want = Reference.constant(lq, [z1]).mul_binomial(lq, z1, Fraction(1, 3), z2)
        assert_decodes_to(got, want)
        assert_decodes_to(got * got, want * want)
        assert_decodes_to(got.divided_difference(z1, z2), want.divided_difference(z1, z2))


def test_orbit_folds_match_the_tuple_kernel():
    # folded color variables beside unfolded ones (another color, w, t),
    # folded variables the registry lacks, and negative exponents; a fold
    # is zero exactly when the symmetrization over the folded variables is
    z1, z2, z3, y1, w = DIFF_VARS[:5]
    rng = random.Random(2101)
    folds = ((z1, z2), (z1, z2, z3), (z2, w), (z1, z2, z3, y1), ())
    for vs, spec in spec_pool(2101):
        f, rf = both((vs, spec))
        for folded in folds:
            assert_decodes_to(f.fold_orbits(folded), rf.fold_orbits(folded))
    zs = (z1, z2, z3)
    for _ in range(20):
        vs = zs + tuple(rng.sample((y1, w), rng.randint(0, 2)))
        f, rf = both((vs, {tuple(rng.randint(-3, 3) for _ in vs): random_scalar(rng) for _ in range(6)}))
        swap = dict(zip(zs, rng.sample(zs, 3)))
        for g, rg in ((f, rf), (f - f.relabel(swap), rf - rf.relabel(swap))):
            got = g.fold_orbits(zs)
            assert_decodes_to(got, rg.fold_orbits(zs))
            sym = rg.symmetrize(1)
            assert {tuple(sorted(key[:3])) + key[3:] for key in sym.terms} == set(expanded(got))
            # the symmetrization holds |Stab(e)| times the orbit sum at e
            for key, c in expanded(got).items():
                assert sym.terms[key] == c * prod(factorial(key[:3].count(e)) for e in set(key[:3]))


def reference_word_image(alg, word):
    """The numerator of ``alg.word_image(word)`` from tuple-kernel steps:
    each letter is one Grassmannian divided difference of the product
    times its cross binomials."""
    rank = alg.cartan.rank
    num, n = Reference.constant(1), (0,) * rank
    for color, mode in word:
        m = tuple(int(c == color) for c in range(1, rank + 1))
        z = zvar(color, n[color - 1] + 1)
        num = num * Reference.var_power(z, mode)
        for u in alg.flat_vars(n):
            num = num.mul_binomial(1, u, -RatQ.q_power(alg.cartan.pairing(u.color, color)), z)
        if sum(n[color:]) % 2:
            num = -num
        for i in grassmannian_steps(n[color - 1], 1):
            num = num.divided_difference(zvar(color, i), zvar(color, i + 1))
        n = tuple(a + b for a, b in zip(n, m))
    return num.with_vars(alg.flat_vars(n))


@pytest.mark.parametrize("name", TYPES)
def test_word_images_match_the_tuple_kernel(name):
    alg = ShuffleAlgebra(builtin_cartan(name))
    rng = random.Random(f"packed-{name}")
    rank = alg.cartan.rank
    for length in (2, 3, 4, 5):
        word = [(rng.randrange(1, rank + 1), rng.randrange(-2, 3)) for _ in range(length)]
        got = alg.word_image(word).numerator
        assert_decodes_to(got, reference_word_image(alg, word))
        assert got.term_lines() == reference_word_image(alg, word).term_lines()


def pole_sum_stages(kernel, m, coeff, q_inverted=False):
    """The numerator of ``build_pole_sum(m, q_inverted, coeff)`` after each
    of its steps, computed with ``kernel``'s polynomials: the sum of the
    H_k, the cross binomials multiplied in, d_w0 applied, and the final
    numerator before reduction."""
    e = -1 if q_inverted else 1
    zs, n = _zs(m), m + 1
    qm = RatQ.q_power(-e * m)
    total, stages = kernel.zero(), []
    for k in range(m + 2):
        h = kernel.constant(coeff(k))
        for i, z in enumerate(zs):
            h = h.mul_binomial(qm, W, -1, z) if i < k else h.mul_binomial(qm, z, -1, W)
        total = total + h
    stages.append(total)
    for a, b in combinations(zs, 2):
        total = total.mul_binomial(RatQ.q_power(2 * e), b, -1, a)
    stages.append(total)
    for j in range(1, n):
        for i in grassmannian_steps(j, 1):
            total = total.divided_difference(zs[i - 1], zs[i])
    stages.append(total)
    if (n + n * (n - 1) // 2) % 2:
        total = -total
    for a, b in combinations(zs, 2):
        total = total.mul_binomial(1, a, -1, b).mul_binomial(1, a, -1, b)
    return stages + [total]


def reference_pole_sum_numerator(m, coeff, q_inverted=False):
    """``build_pole_sum(m, q_inverted, coeff).value.num`` from tuple-kernel
    steps, before reduction."""
    return pole_sum_stages(Reference, m, coeff, q_inverted)[-1]


def reference_reduce(num, den):
    """``ratfun._reduce`` on a tuple-kernel numerator."""
    den = dict(den)
    for f in list(den):
        while den.get(f):
            try:
                num = num.exact_div_binomial(f.i, f.j, f.c)
            except NotDivisible:
                break
            den[f] -= 1
    return num, {f: m for f, m in den.items() if m}


def test_classical_pole_sum_matches_the_tuple_kernel():
    # the classical binomials break the identity: a large nonzero numerator
    classical = lambda k: comb(4, k)  # noqa: E731
    got = build_pole_sum(3, coeff=classical).value
    num, den = reference_reduce(reference_pole_sum_numerator(3, classical), pole_sum_denominator(3))
    assert not got.is_zero()
    assert got.den == den
    assert_decodes_to(got.num, num)
    # and the genuine q-binomials still cancel to zero in both kernels
    assert build_pole_sum(2).is_zero()
    assert not reference_pole_sum_numerator(2, lambda k: _binom(2, k, False))


@pytest.mark.parametrize("q_inverted", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_pole_sums_match_the_tuple_kernel(m, q_inverted):
    # the genuine q-binomials, whose d_w0 image vanishes, and the classical
    # binomials, whose reduced value does not
    genuine = lambda k: _binom(m, k, q_inverted)  # noqa: E731
    classical = lambda k: comb(m + 1, k)  # noqa: E731
    for coeff in (genuine, classical):
        stages = pole_sum_stages(MultiLaurent, m, coeff, q_inverted)
        want = pole_sum_stages(Reference, m, coeff, q_inverted)
        for got, ref in zip(stages, want):
            assert_decodes_to(got, ref)
        assert stages[0] and bool(stages[2]) == (coeff is classical)
        value = build_pole_sum(m, q_inverted, coeff=coeff).value
        num, den = reference_reduce(want[-1], pole_sum_denominator(m))
        assert value.den == den
        assert_decodes_to(value.num, num)


def test_classical_serre_alternator_matches_the_tuple_kernel():
    alg = ShuffleAlgebra(builtin_cartan("A2"))
    got, want = MultiLaurent.zero(), Reference.zero()
    for modes in ((1, -1), (-1, 1)):
        for r in range(3):
            word = [(1, x) for x in modes[:r]] + [(2, 0)] + [(1, x) for x in modes[r:]]
            c = (-1) ** r * comb(2, r)
            got = got + alg.word_image(word).numerator.scale(c)
            want = want + reference_word_image(alg, word).scale(c)
    assert got
    assert_decodes_to(got, want.with_vars(got.vars))


# ---------- certification ----------


def test_a_narrow_packing_is_widened(monkeypatch):
    # 8-bit q-digits hold coefficients below 64: these products certify far
    # beyond that, so the kernel must repack, and still decode exactly
    repacks = []
    repacked = poly._repacked

    def counted(terms, K, wide):
        repacks.append((K, wide))
        return repacked(terms, K, wide)

    monkeypatch.setattr(poly, "_K_START", 8)
    monkeypatch.setattr(poly, "_repacked", counted)
    alg = ShuffleAlgebra(builtin_cartan("A2"))
    word = [(1, 0), (2, 1), (1, -1), (2, 0), (1, 2)]
    got = alg.word_image(word).numerator
    assert_decodes_to(got, reference_word_image(alg, word))
    classical = build_pole_sum(2, coeff=lambda k: 7**k).value.num
    assert_decodes_to(classical, reference_pole_sum_numerator(2, lambda k: 7**k))
    assert repacks and all(wide > K for K, wide in repacks)
    assert max(abs(c) for c in expanded(classical).values()) >= 1 << 6
    assert classical.K > 8


def test_placed_sums_reach_their_bound():
    # P's digits reach its bound b, and the weights 1 + q, placed by the
    # three cyclic shifts, stack the symmetric term's products on one
    # monomial, so a digit of the sum reaches b times the weights' summed
    # l1 norms: the bound rule is tight
    vs = (zvar(1, 1), zvar(1, 2), zvar(1, 3))
    b = 1000
    spec = {(1, 1, 1): LaurentQ({0: b, 1: b}), (2, 0, -1): 3, (0, -2, 5): RatQ.q_power(2, -7)}
    weight = {(0, 0, 0): LaurentQ({0: 1, 1: 1})}
    cycles = (None, (1, 2, 0), (2, 0, 1))
    parts = poly.placements([(src, MultiLaurent(vs, weight)) for src in cycles])
    rw = Reference(vs, weight)
    # and an operand whose digits or exponents need a wider K or F than
    # the weights' frame: the frame is repacked for the call
    wide = {(1, 1, 1): LaurentQ({0: 10**6, 1: 1}), (20000, 0, -1): 3}
    for P, rP in (both((vs, spec)), both((vs, wide))):
        got = P._placed_sum(vs, parts)
        want = sum((rP if src is None else rP._reslot(vs, src)) * rw for src in cycles)
        assert_decodes_to(got, want)
    assert (got.K, got.F) == (32, 32) and all((W.K, W.F) == (16, 16) for _, W, _ in parts[0])
    # weights over different denominators and lowest powers of q share
    # one frame
    half = {(1, 0, 0): RatQ.q_power(-2, Fraction(1, 2))}
    mixed = poly.placements([(None, MultiLaurent(vs, weight)), ((1, 2, 0), MultiLaurent(vs, half))])
    assert_decodes_to(P._placed_sum(vs, mixed), rP * rw + rP._reslot(vs, (1, 2, 0)) * Reference(vs, half))
    P = MultiLaurent(vs, spec)
    assert P.bound == b
    got = P._placed_sum(vs, parts)
    assert exact_bound(got.terms, got.K) == got.bound == 6 * b
    assert parts[1] == 6


def test_orbit_folds_certify_their_bound():
    # three cyclic shifts of one monomial carry digits of 12000, below
    # 2^14, so they pack at K = 16; folded they meet on one key, and 36000
    # fits no 16-bit digit: the fold must widen K before it adds
    z1, z2, z3, _, w = DIFF_VARS[:5]
    vs = (z1, z2, z3, w)
    c = LaurentQ({0: 12000, 1: -12000})
    spec = {(0, 1, 2, 5): c, (2, 0, 1, 5): c, (1, 2, 0, 5): c, (1, 2, 0, 4): c, (0, 0, -3, 3): 7}
    f, rf = both((vs, spec))
    assert f.K == 16
    got = f.fold_orbits((z1, z2, z3))
    assert_decodes_to(got, rf.fold_orbits((z1, z2, z3)))
    assert got.K > 16 and exact_bound(got.terms, got.K) == 36000 <= got.bound


def certificate_pool(rng, K):
    """Packed value dicts at K bits a digit: random digits up to the
    largest a bound admits, 2^(K - 2) - 1, values with a negative top
    digit, values whose digits are all -1, and one-digit values."""
    B = (1 << K - 2) - 1

    def value(digits):
        return sum(c << K * i for i, c in enumerate(digits))

    pool = []
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [[rng.choice((rng.randint(-B, B), rng.randint(-9, 9), B, -B, -1, 0)) for _ in range(n)]
                for _ in range(rng.randint(1, 6))]
        rows.append([rng.randint(-B, B) for _ in range(n - 1)] + [-rng.randint(1, B)])
        pool.append({k: value(row) for k, row in enumerate(rows) if any(row)})
    pool += [{0: value([-1] * n)} for n in (1, 2, 7)]
    pool += [{k: value([rng.choice((-1, 0, 1)) for _ in range(5)] + [1]) for k in range(4)} for _ in range(5)]
    pool += [{k: value([c]) for k, c in enumerate(cs)} for cs in ([1], [-1], [B], [-B], [2, -3], [-(1 << K - 3)])]
    pool.append({0: value([B, 0, -1]), 1: value([0, -B])})
    return pool


@pytest.mark.parametrize("K", (8, 16, 32, 64, 128))
def test_certificate_lies_within_twice_the_digits(K):
    # against the exact digit scan: at least the largest |digit| and at
    # most twice it, so a recertified bound never understates the digits
    # and costs at most one bit of headroom; digits of size at most 1,
    # as in a product of unit q-monomials, are certified exactly
    for terms in certificate_pool(random.Random(2300 + K), K):
        exact, cert = exact_bound(terms, K), poly._certificate(terms, K)
        assert exact <= cert <= 2 * exact, (terms, exact, cert)
        if exact == 1:
            assert cert == 1, terms
    assert poly._certificate({}, K) == 0


def test_a_wider_packing_reads_no_digits_while_the_bounds_fit(monkeypatch):
    # adding a polynomial packed at K = 32 to one at K = 16 repacks the
    # narrower one; its certified bound fits at K = 32, so no digit is read
    z1, z2 = DIFF_VARS[:2]
    reads = []
    certificate = poly._certificate
    monkeypatch.setattr(poly, "_certificate", lambda terms, K: reads.append(K) or certificate(terms, K))
    spec_wide = ((z1, z2), {(1, 0): LaurentQ({0: 10**6, 2: -3}), (0, 1): 5})
    spec_narrow = ((z1, z2), {(1, 0): 7, (2, -1): RatQ.q_power(-4, 3)})
    (f, rf), (g, rg) = both(spec_wide), both(spec_narrow)
    assert (f.K, g.K) == (32, 16)
    assert_decodes_to(f + g, rf + rg)
    assert_decodes_to(g - f, rg - rf)
    assert reads == []
    # the control: bounds that no longer fit at K = 32 are recertified
    loose = MultiLaurent._raw(f.vars, f.terms, f.K, f.qlo, (1 << 30) - 1, f.den, f.F, f.E)
    assert_decodes_to(loose + g, rf + rg)
    assert reads == [32, 16]


def test_a_certificate_that_does_not_fit_is_read_exactly(monkeypatch):
    # digits 4096 and 4095 certify as 8191: three times that does not fit
    # at K = 16 but three times the largest digit does, so the exact read
    # keeps K = 16 and repacks nothing; needs beyond the exact digits widen
    z1, z2 = DIFF_VARS[:2]
    repacks = []
    repacked = poly._repacked
    monkeypatch.setattr(poly, "_repacked", lambda terms, K, wide: repacks.append(wide) or repacked(terms, K, wide))
    f = MultiLaurent((z1, z2), {(1, 0): LaurentQ({0: 4096, 1: 4095}), (0, 1): -5})
    loose = MultiLaurent._raw(f.vars, f.terms, f.K, f.qlo, 8191, f.den, f.F, f.E)
    assert (f.K, poly._certificate(f.terms, f.K), exact_bound(f.terms, f.K)) == (16, 8191, 4096)
    (got,), K = poly._fit([loose], lambda b: 3 * b)
    assert (K, got.bound, got.terms, repacks) == (16, 4096, f.terms, [])
    (got,), K = poly._fit([loose], lambda b: 4 * b)
    assert (K, got.bound, repacks) == (32, 4096, [32])
    assert expanded(got) == expanded(f)


def test_unit_binomial_inverses_match_the_tuple_kernel():
    # unit scalars +-q^s pack each coefficient as one shifted int
    z1, z2 = DIFF_VARS[:2]
    for vi, vj in ((z1, z2), (z2, z1)):
        for c in (RatQ.q_power(s, a) for s in (-3, 0, 2, 5) for a in (1, -1)):
            for n in (0, 1, 6, 40):
                for dom in (vi, vj):
                    got = MultiLaurent.binomial_inverse(vi, vj, c, n, dom)
                    assert_decodes_to(got, Reference.binomial_inverse(vi, vj, c, n, dom))


def wide_exponent_results(kernel):
    """Results whose exponents reach 64 and beyond from inputs below it: a
    product, a power, a substitution summing three slots, an exact
    division, and an A2 word image with modes of size up to 40."""
    z1, z2, y1 = DIFF_VARS[:3]
    f = kernel((z1, z2, y1), {(40, -30, 3): 1, (-35, 20, -41): Fraction(2, 3), (1, 2, 3): RatQ.q_power(5)})
    g = kernel((z1, y1), {(33, -33): 3, (-20, 41): RatQ.q_power(-2, 7)})
    out = [f * g, f * f * f, f.substitute((z1, z2, y1), (RatQ.q_power(1), 1, RatQ.q_power(-2)), T)]
    out.append(f.mul_binomial(1, z1, RatQ.q_power(3, -1), z2).exact_div_binomial(z1, z2, RatQ.q_power(3)))
    alg = ShuffleAlgebra(builtin_cartan("A2"))
    word = [(1, 40), (2, -38), (1, 37)]
    image = alg.word_image(word).numerator if kernel is MultiLaurent else reference_word_image(alg, word)
    return out + [image]


def test_a_narrow_key_field_is_widened(monkeypatch):
    # 8-bit key fields hold exponents below 64: these results need more,
    # so the kernel must repack its keys and still decode exactly
    rekeys = []
    rekeyed = poly._rekeyed

    def counted(terms, F, wide, n):
        rekeys.append((F, wide))
        return rekeyed(terms, F, wide, n)

    monkeypatch.setattr(poly, "_F_START", 8)
    monkeypatch.setattr(poly, "_rekeyed", counted)
    want = wide_exponent_results(Reference)
    got = wide_exponent_results(MultiLaurent)
    for g, w in zip(got, want):
        assert_decodes_to(g, w)
        assert g.term_lines() == w.term_lines()
    assert rekeys and all(wide > F for F, wide in rekeys)
    assert all(g.F > 8 for g in got)
    assert max(abs(e) for g in got for key in g.exponents() for e in key) >= 1 << 6
    # the control: without the widening the fields overflow and the keys
    # no longer decode to the results
    monkeypatch.setattr(MultiLaurent, "_keyed", lambda self, E, F=0: self)
    wrong = wide_exponent_results(MultiLaurent)
    assert any(expanded(g) != w.terms for g, w in zip(wrong, want))


def test_key_order_is_exponent_tuple_order():
    # keys of random exponent tuples, negative exponents included, sort
    # like the tuples and decode back to them, at every field width
    rng = random.Random(1901)
    for F in (8, 16, 32, 64, 128):
        for n in (0, 1, 2, 3, 5, 8):
            B = 1 << (F - 2)
            rows = list({tuple(rng.randint(-B + 1, B - 1) for _ in range(n)) for _ in range(40)})
            rows += [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(20)]
            keys = [poly._key(row, F) for row in rows]
            assert sorted(keys) == [poly._key(row, F) for row in sorted(rows)]
            assert poly._exponents(keys, F, n) == rows
            assert all(key >= 0 and not key & poly._bias(F, n) for key in keys)  # guard bits stay 0
    # and the registry order of a polynomial's terms is their key order
    vs = DIFF_VARS[:4]
    p = MultiLaurent(vs, {tuple(rng.randint(-9, 9) for _ in vs): rng.randint(1, 5) for _ in range(60)})
    assert [p.exponents()[list(p.terms).index(k)] for k in sorted(p.terms)] == sorted(p.exponents())


def test_key_width_changes_no_result():
    # keys packed at wider fields render alike, give the same results in
    # arithmetic with narrower ones, and ``within`` keeps the same terms
    # (``packings`` covers equality and hashing)
    rng = random.Random(1902)
    for vs, terms in spec_pool(1902)[:12]:
        f, rf = both((vs, terms))
        for F in (32, 64, 128):
            wide = f._keyed(0, F)
            assert wide.F == F and wide.term_lines() == f.term_lines()
            for g, rg in (both(spec) for spec in spec_pool(1903)[:4]):
                assert_decodes_to(wide * g, rf * rg)
                assert_decodes_to(g + wide, rg + rf)
                assert (wide == g) == (rf == rg)
            box = {v: sorted((rng.randint(-3, 3), rng.randint(-3, 3))) for v in vs}
            assert wide.within(box) == f.within(box)


def test_within_tests_whole_boxes_on_the_guard_bits():
    # boxes inside, across and beyond the fields, empty ones included,
    # against a filter on the exponent tuples
    rng = random.Random(1903)
    vs = DIFF_VARS[:3]
    p = MultiLaurent(vs, {tuple(rng.randint(-6, 6) for _ in vs): rng.randint(-4, 4) or 1 for _ in range(80)})
    rows = dict(zip(p.exponents(), p.terms.values()))
    ends = [-(10**9), -(1 << 14), -7, -3, 0, 2, 5, 1 << 14, 10**9]
    for _ in range(300):
        pick = lambda: rng.choice(ends + [rng.randint(-7, 7)])  # noqa: E731
        box = {v: (pick(), pick()) for v in vs}
        got = p.within(box)
        want = {row for row in rows if all(box[v][0] <= e <= box[v][1] for v, e in zip(vs, row))}
        assert set(got.exponents()) == want
        assert all(got.terms[poly._key(row, p.F)] == rows[row] for row in want)


def packed_as(p, K, qlo, den):
    """p packed by hand at K from qlo over the denominator den."""
    grouped = {}
    for key, c in expanded(p).items():
        grouped.setdefault(key[:-1], {})[key[-1]] = c * den
    assert all(Fraction(c).denominator == 1 for qt in grouped.values() for c in qt.values())
    terms = {
        poly._key(key, p.F): sum(int(c) << K * (s - qlo) for s, c in qt.items())
        for key, qt in grouped.items()
    }
    bound = max((abs(int(c)) for qt in grouped.values() for c in qt.values()), default=0)
    return MultiLaurent._raw(p.vars, terms, K, qlo, bound, den, p.F, p.E)


def packings(p):
    """p in several packings, with keys of several widths, and over a
    wider registry."""
    lo = min((key[-1] for key in expanded(p)), default=0)
    d = lcm(*(Fraction(c).denominator for c in expanded(p).values()))
    out = [packed_as(p, K, qlo, den) for K in (16, 32, 128) for qlo in (lo, lo - 3) for den in (d, 5 * d)]
    wider = [x.with_vars((aux_var("u"),)) for x in out[::3]]
    return out + wider + [x._keyed(0, F) for x in out[::4] for F in (32, 64)]


def test_equality_and_hash_ignore_the_packing():
    z1, z2 = DIFF_VARS[:2]
    polys = [
        MultiLaurent((z1, z2), {(1, 0): Fraction(1, 2), (0, 1): LaurentQ({-2: 3, 5: Fraction(-1, 3)})}),
        MultiLaurent((z1,), {(2,): RatQ.q_power(-4, 7)}),
        MultiLaurent.zero((z1,)),
    ]
    for p in polys:
        forms = packings(p)
        for a, b in combinations([p] + forms, 2):
            assert a == b and b == a
            assert hash(a) == hash(b)
        for other in polys:
            if other is not p:
                assert all(x != other and other != x for x in forms)
    # a constant equals its scalar in all five scalar types, in any packing
    for lq in (LaurentQ.one(), LaurentQ({1: 1}), LaurentQ({-2: Fraction(1, 3), 0: 2})):
        scalars = [lq, RatQ(lq), MultiLaurent.constant(lq)]
        if lq == 1:
            scalars += [1, Fraction(1)]
        for form in packings(MultiLaurent.constant(lq)):
            for x in scalars:
                assert form == x and x == form
                assert hash(form) == hash(x)
            assert form != lq + 1 and hash(form) == hash(MultiLaurent.constant(lq, (z2,)))
