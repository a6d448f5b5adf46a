"""Pole-sum identities: rational vanishing, partial fractions, windows."""

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from qshuffle import poly
from qshuffle.formal import Window, compare_on_window, expand_ratfun
from qshuffle.identities import (
    PF_MUTATIONS,
    W,
    _binom,
    _lhs_poly,
    _pf_pair,
    _rhs_polys,
    _zs,
    build_pole_sum,
    partial_fraction_check,
    pole_sum_denominator,
    term_value,
    verify_rational_vanishing,
    window_identity_report,
)
from qshuffle.poly import MultiLaurent, aux_var, zvar
from qshuffle.qring import RatQ
from qshuffle.ratfun import BinomialFactor, RatFun, _reduce, fractions_equal, rat_sum

from helpers import (
    difference_readings,
    exact_bound,
    laurent_delta_chain,
    ratfun_pf_pair,
    series_delta_chain,
    unfolded_rhs_polys,
)
from tuple_kernel import expanded


def reference_term_value(m, k, sigma, q_inverted=False):
    """Reference summand, built factor by factor: each pole is divided in
    with ``RatFun.div_factor``, one reduction per factor."""
    e = -1 if q_inverted else 1
    rel = [_zs(m)[s - 1] for s in sigma]
    num = MultiLaurent.constant(_binom(m, k, q_inverted))
    for a, b in combinations(rel, 2):
        num = num.mul_binomial(1, a, -1, b)
    out = RatFun(num)
    poles = [(-e * m, z, W) if pos < k else (-e * m, W, z) for pos, z in enumerate(rel)]
    for p, a, b in poles + [(2 * e, a, b) for a, b in combinations(rel, 2)]:
        f, unit = BinomialFactor.make(RatQ.q_power(p), a, RatQ.one(), b)
        out = (out / unit).div_factor(f)
    return out


def test_pole_sum_vanishes_low_orders():
    rep = verify_rational_vanishing(ms=(1, 2))
    assert rep["all_zero"]
    counts = {(r["m"], r["q_inverted"]): r["term_count"] for r in rep["results"]}
    assert counts == {(1, False): 6, (1, True): 6, (2, False): 24, (2, True): 24}


def test_term_count_formula():
    for m in (1, 2):
        ps = build_pole_sum(m)
        assert ps.term_count == (m + 2) * factorial(m + 1)


def test_naive_term_sum_agrees():
    for qi in (False, True):
        naive = rat_sum(
            term_value(1, k, s, qi) for k in range(3) for s in permutations((1, 2))
        )
        assert naive.is_zero()


@pytest.mark.parametrize("qi", (False, True))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_term_value_matches_factor_by_factor_reference(m, qi):
    for k in range(m + 2):
        for s in permutations(range(1, m + 2)):
            assert term_value(m, k, s, qi) == reference_term_value(m, k, s, qi), (k, s)


def test_single_term_numeric_value():
    # T_{k=1, id} for m=1 against a hand-built Fraction evaluation
    t = term_value(1, 1, (1, 2))
    q0 = Fraction(2, 3)
    z1, z2, w = Fraction(5), Fraction(7), Fraction(11, 2)
    got = t.eval_at(q0, {zvar(1, 1): z1, zvar(1, 2): z2, aux_var("w"): w})
    binom = q0 + 1 / q0
    expect = (
        binom
        * (z1 - z2)
        / ((z1 / q0 - w) * (w / q0 - z2) * (q0 * q0 * z1 - z2))
    )
    assert got == expect


def test_mutated_coefficient_breaks_vanishing():
    # the classical binomials are not the right weights away from q = 1
    ps = build_pole_sum(1, coeff=lambda k: comb(2, k))
    assert not ps.is_zero()


def test_denominator_set_is_orientation_independent():
    # every summand of either orientation draws its poles from the one set
    for m in (1, 2):
        den = pole_sum_denominator(m)
        for qi in (False, True):
            for k in range(m + 2):
                for s in permutations(range(1, m + 2)):
                    assert set(term_value(m, k, s, qi).den) <= set(den)
    den = pole_sum_denominator(1)
    assert len(den) == 2 * 2 + 2 * 1


COEFFS = {
    "genuine": lambda m: None,
    "classical": lambda m: lambda k: comb(m + 1, k),
    "k*k+1": lambda m: lambda k: k * k + 1,
}


@pytest.mark.parametrize("name", COEFFS)
@pytest.mark.parametrize("qi", (False, True))
@pytest.mark.parametrize("m", (1, 2))
def test_pole_sum_matches_summand_reference(m, qi, name):
    # the divided-difference numerator against the (m+2)(m+1)! summands
    # of term_value, rescaled to the same coefficient map; both
    # sides carry the factor B = prod_k [m+1 k], which keeps the rescaling
    # c_k B / [m+1 k] inside the Laurent coefficient ring
    coeff = COEFFS[name](m)
    binoms = [_binom(m, k, qi) for k in range(m + 2)]
    B = RatQ.one()
    for b in binoms:
        B = B * b
    ref = rat_sum(
        term_value(m, k, s, qi).scale(B if coeff is None else coeff(k) * B / binoms[k])
        for k in range(m + 2)
        for s in permutations(range(1, m + 2))
    )
    got = build_pole_sum(m, qi, coeff).value
    assert got.scale(B) == ref
    assert got.is_zero() == (coeff is None)


def test_m3_pole_sum_vanishes_and_classical_control_does_not():
    assert all(build_pole_sum(3, qi).is_zero() for qi in (False, True))
    assert not build_pole_sum(3, coeff=lambda k: comb(4, k)).is_zero()


def test_m_validation():
    with pytest.raises(ValueError):
        build_pole_sum(0)
    with pytest.raises(ValueError):
        term_value(1, 3, (1, 2))


def test_entry_points_refuse_m_below_one_and_non_permutations():
    # m = 0 once returned a report with both readings matched, and m = -1
    # failed on unpacking; a short sigma once built a one-variable summand
    for m in (0, -1):
        with pytest.raises(ValueError):
            window_identity_report(m, Window(-2, 2))
        with pytest.raises(ValueError):
            term_value(m, 0, ())
    for sigma in ((1,), (1, 3), (1, 1), (2, 2), (0, 1), (1, 2, 3), (1.0, 2), ("a", 1)):
        with pytest.raises(ValueError):
            term_value(1, 0, sigma)
    with pytest.raises(ValueError):
        term_value(2, 1, (3, 1, 1))
    # any order of 1..m+1, given as any iterable, is a summand
    for sigma in permutations((1, 2, 3)):
        assert term_value(2, 1, iter(sigma)) == term_value(2, 1, list(sigma))
    assert window_identity_report(1, Window(-2, 2))["matched"] == ["qminus"]


def test_partial_fractions_hold():
    assert partial_fraction_check()


@pytest.mark.parametrize("mut", PF_MUTATIONS)
def test_partial_fraction_mutations_fail(mut):
    assert not partial_fraction_check(mut)


@pytest.mark.parametrize("perturb", (None,) + PF_MUTATIONS)
def test_partial_fraction_sides_match_reduced_reference(perturb):
    # each step's unreduced sides against the RatFun-arithmetic build,
    # side by side as fractions and in the verdict, step by step
    for step, ((l, r), (rl, rr)) in enumerate(zip(_pf_pair(perturb), ratfun_pf_pair(perturb)), start=1):
        assert fractions_equal(l, (rl.num, rl.den)), (perturb, step)
        assert fractions_equal(r, (rr.num, rr.den)), (perturb, step)
        assert fractions_equal(l, r) == (rl - rr).is_zero(), (perturb, step)


def test_partial_fraction_unknown_mutation():
    with pytest.raises(ValueError):
        partial_fraction_check("nonsense")


def test_window_identity_m1():
    rep = window_identity_report(1, Window(-6, 6))
    assert rep["readings"] == {"qminus": True, "qplus": False}
    assert rep["matched"] == ["qminus"]
    assert rep["compared"]["qminus"] == (-6, 6)


def test_window_identity_m1_inverted():
    rep = window_identity_report(1, Window(-6, 6), q_inverted=True)
    assert rep["readings"] == {"qminus": True, "qplus": False}


def test_window_identity_rhs_scale_control():
    rep = window_identity_report(1, Window(-6, 6), rhs_scale=2)
    assert rep["matched"] == []


def test_window_identity_m2():
    rep = window_identity_report(2, Window(-4, 4))
    assert rep["readings"] == {"qminus": True, "qplus": False}
    assert rep["compared"] == {"qminus": (-4, 4), "qplus": (-4, 4)}


@pytest.mark.parametrize("qi", (False, True))
def test_window_identity_m3(qi):
    rep = window_identity_report(3, Window(-4, 4), q_inverted=qi)
    assert rep["readings"] == {"qminus": True, "qplus": False}
    assert rep["compared"] == {"qminus": (-4, 4), "qplus": (-4, 4)}


def test_window_identity_m4_one_sided_window_is_decisive():
    # the series-built chain is exact on -2:-1 only, where both readings
    # agree with the left side; the closed form compares all of -2:0
    rep = window_identity_report(4, Window(-2, 0))
    assert rep["matched"] == ["qminus"]
    assert rep["compared"] == {"qminus": (-2, 0), "qplus": (-2, 0)}


@pytest.mark.parametrize("qi", (False, True))
@pytest.mark.parametrize("reading", ("qminus", "qplus"))
@pytest.mark.parametrize(
    "m, win",
    (
        (1, Window(-6, 6)), (1, Window(-9, 0)), (1, Window(-2, 7)),
        (2, Window(-4, 4)), (2, Window(-6, 0)), (2, Window(-3, 5)),
        (3, Window(-3, 3)), (3, Window(-4, 0)),
        (4, Window(-2, 2)), (4, Window(-1, 5)),
    ),
)
def test_closed_form_chain_matches_series_chain(m, win, reading, qi):
    # the closed form against m verified series products, on the part of
    # the window where the products are exact; symmetric and one-sided
    # windows (at m = 4 a window ending at 0 leaves the products exact on
    # exponents <= -1 only, where no monomial of degree -5 lies, so the
    # one-sided m = 4 window reaches up instead); the library builds the
    # closed form folded over the z-orbits, the reference unfolded
    ref = series_delta_chain(_zs(m), win, reading, qi)
    box = ref.reliable.intersect(win)
    expect = ref.poly.within(dict.fromkeys(ref.vars, box.as_pair()))
    assert expect
    assert dict(unfolded_rhs_polys(m, box, qi))[reading] == expect
    assert dict(_rhs_polys(m, box, qi))[reading] == expect.fold_orbits(_zs(m))


@pytest.mark.parametrize("qi", (False, True))
@pytest.mark.parametrize("reading", ("qminus", "qplus"))
@pytest.mark.parametrize(
    "m, win",
    (
        (1, Window(-6, 6)), (1, Window(-9, 0)), (1, Window(0, 5)), (1, Window(-7, -1)),
        (2, Window(-4, 4)), (2, Window(-6, 0)), (2, Window(-2, 5)),
        (3, Window(-3, 3)), (3, Window(-4, 0)),
        (4, Window(-2, 2)), (4, Window(-3, 0)),
    ),
)
def test_packed_chain_matches_laurent_chain(m, win, reading, qi):
    # the chain packed as sums of shifted ints, folded over the z-orbits
    # as it is built, against the same chain built through LaurentQ
    # scalars and then folded, symmetric and one-sided windows; digits at
    # the starting width, each at most the (m + 1)! terms of an orbit, key
    # fields just wide enough
    want = laurent_delta_chain(m, win, reading, qi).fold_orbits(_zs(m))
    got = dict(_rhs_polys(m, win, qi))[reading]
    assert (got.vars, expanded(got)) == (want.vars, expanded(want))
    assert got.den == 1 and exact_bound(got.terms, got.K) <= got.bound <= (factorial(m + 1) if got.terms else 0)
    assert (got.K, got.F) == (poly._K_START, poly._wide(got.E, poly._F_START))


@pytest.mark.parametrize("qi", (False, True))
@pytest.mark.parametrize(
    "m, win",
    (
        (1, Window(-6, 6)), (1, Window(-9, 0)), (1, Window(0, 5)),
        (2, Window(-4, 4)), (2, Window(-6, 0)), (2, Window(0, 4)),
        (3, Window(-3, 3)), (3, Window(-4, 0)), (3, Window(1, 3)),
        (4, Window(-2, 2)), (4, Window(-3, 0)), (4, Window(0, 2)),
    ),
)
def test_folded_sides_decide_like_the_folded_difference(m, win, qi):
    # the report compares the folds of the two sides; fold_orbits is
    # linear, so each reading is the difference rule's, also when the
    # right side is scaled (the control) and where both sides vanish
    for scale in (None, RatQ.q_power(1), 2, -1):
        rep = window_identity_report(m, win, qi, rhs_scale=scale)
        assert rep["readings"] == difference_readings(m, win, qi, scale), scale
        if scale is not None and win.lo < 0:
            assert rep["matched"] == []


def test_wide_window_left_side_keeps_sixteen_bit_digits():
    # the expansions multiply by unit q-monomials, whose absolute digit
    # sum is their term count, so the certified bound stays near the
    # digits: b1 b2 w n certified 799,959,802 here and packed at K = 32
    lhs = _lhs_poly(1, Window(-100, 100), False)
    assert lhs.K == 16
    assert exact_bound(lhs.terms, lhs.K) <= lhs.bound < 1 << 14


def test_window_expansions_form_no_product(monkeypatch):
    # each pole of an expansion is one pruned step: no truncated series is
    # built and no product with one is formed; each summand's expansion
    # filters once, its numerator, and no step filters
    def refuse(*args, **kwargs):
        raise AssertionError("an unpruned product was formed")

    within, step = MultiLaurent.within, MultiLaurent._geometric_step
    calls, in_step = [], []

    def counted_within(self, bounds):
        calls.append(bool(in_step))
        return within(self, bounds)

    def counted_step(self, *args):
        in_step.append(1)
        try:
            return step(self, *args)
        finally:
            in_step.pop()

    want = {m: _lhs_poly(m, Window(-3, 3), False) for m in (1, 2)}
    monkeypatch.setattr(MultiLaurent, "__mul__", refuse)
    monkeypatch.setattr(MultiLaurent, "within", counted_within)
    monkeypatch.setattr(MultiLaurent, "_geometric_step", counted_step)
    for m in (1, 2):
        calls.clear()
        assert _lhs_poly(m, Window(-3, 3), False) == want[m]
        assert calls == [False] * (m + 2)


@pytest.mark.parametrize("m", (1, 2, 3))
def test_summands_are_built_reduced(m):
    # the numerator's factors z_a - z_b are none of the q^(+-m) and
    # q^(+-2) poles: reducing a summand divides nothing out
    for qi in (False, True):
        for sigma in (tuple(range(1, m + 2)), tuple(range(m + 1, 0, -1))):
            for k in range(m + 2):
                t = term_value(m, k, sigma, qi)
                num, den = _reduce(t.num, t.den)
                assert num is t.num and den == t.den, (k, sigma, qi)


def test_window_fold_leaves_w_in_place():
    # a right side with w and z_1 exchanged agrees with the left side on
    # the orbits of (z, w), but not on the z-orbits the identity is about
    for m, win in ((1, Window(-6, 6)), (2, Window(-3, 3))):
        zs = _zs(m)
        lhs, rhs = _lhs_poly(m, win, False), series_delta_chain(zs, win, "qminus")
        box = dict.fromkeys(lhs.vars, rhs.reliable.intersect(win).as_pair())
        assert not (lhs - rhs.poly).within(box).fold_orbits(zs)
        swapped = (lhs - rhs.relabel({W: zs[0], zs[0]: W}).poly).within(box)
        assert swapped.fold_orbits(zs)
        assert not swapped.fold_orbits(zs + [W])


def per_permutation_lhs(m, window, q_inverted):
    """Every relabeled summand expansion, added one by one."""
    zs = _zs(m)
    total = None
    for k in range(m + 2):
        order = zs[:k] + [W] + zs[k:]
        base = expand_ratfun(term_value(m, k, tuple(range(1, m + 2)), q_inverted), order, window)
        for sigma in permutations(range(1, m + 2)):
            part = base.relabel({zs[i]: zs[s - 1] for i, s in enumerate(sigma)})
            total = part if total is None else total + part
    return total


def per_permutation_rhs(m, window, reading, q_inverted):
    """One series-built delta chain per permutation."""
    zs = _zs(m)
    total = None
    for sigma in permutations(range(1, m + 2)):
        chain = series_delta_chain([zs[s - 1] for s in sigma], window, reading, q_inverted)
        total = chain if total is None else total + chain
    return total


def same_series(x, y):
    return (x.vars, expanded(x), x.window, x.reliable, x.support) == (
        y.vars, expanded(y), y.window, y.reliable, y.support
    )


def sum_over_perms(series, zs):
    """Sum of the relabelings of series by every permutation of zs."""
    total = None
    for perm in permutations(zs):
        part = series.relabel(dict(zip(zs, perm)))
        total = part if total is None else total + part
    return total


@pytest.mark.parametrize("qi", (False, True))
@pytest.mark.parametrize("m, win", ((1, Window(-6, 6)), (1, Window(-3, 2)), (2, Window(-3, 3))))
def test_symmetrized_sides_match_per_permutation_construction(m, win, qi):
    # relabeling commutes with expansion and with series_mul, so each side
    # may be built once for the identity permutation: symmetrized, it is
    # the per-permutation side.  The report's orbit-folded readings are the
    # coefficientwise comparisons of the per-permutation sides: on the whole
    # window against the symmetrized closed form, and on the reliable box of
    # the series-built chains against their per-permutation sum
    zs = _zs(m)
    lhs = per_permutation_lhs(m, win, qi)
    assert (lhs.window, lhs.reliable) == (win, win)
    assert sum_over_perms(_lhs_poly(m, win, qi), zs) == lhs.poly
    rep = window_identity_report(m, win, qi)
    for reading in ("qminus", "qplus"):
        assert rep["compared"][reading] == win.as_pair()
        unfolded = dict(unfolded_rhs_polys(m, win, qi))[reading]
        assert dict(_rhs_polys(m, win, qi))[reading] == unfolded.fold_orbits(zs)
        closed = sum_over_perms(unfolded, zs)
        assert rep["readings"][reading] == (lhs.poly == closed)
        rhs = per_permutation_rhs(m, win, reading, qi)
        assert same_series(sum_over_perms(series_delta_chain(zs, win, reading, qi), zs), rhs)
        box = lhs.reliable.intersect(rhs.reliable).intersect(win)
        assert rep["readings"][reading] == compare_on_window(lhs, rhs, box)


def test_pole_sum_progress_lines():
    # one line per k block, then one per d_w0 chain
    lines = []
    build_pole_sum(3, progress=lines.append)
    assert len(lines) == (3 + 2) + 3
    assert all(" k=" in line for line in lines[:5])
    assert [line.split(":")[0] for line in lines[5:]] == [
        f"m=3 d_w0 chain {j}/3" for j in (1, 2, 3)
    ]
