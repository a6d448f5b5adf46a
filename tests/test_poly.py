import copy
import pickle
import random
from fractions import Fraction
from operator import add

import pytest

from qshuffle.cartan import builtin_cartan
from qshuffle.poly import MultiLaurent, NotDivisible, VarId, aux_var, zvar
from qshuffle.qring import LaurentQ, RatQ, coefficient
from qshuffle.ratfun import RatFun
from qshuffle.shuffle import ClosureViolation, ShuffleAlgebra, parse_word

from helpers import random_fraction, random_laurent, random_q_monomial, random_q_point, series_head
from tuple_kernel import MultiLaurent as Reference
from tuple_kernel import expanded, from_packed

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
    vs = sorted([W, Y1, Z2, Z1])
    assert vs == [Z1, Z2, Y1, W]
    with pytest.raises(ValueError):
        zvar(0, 1)


def reference_sort_key(v: VarId):
    # the variable order as an explicit key: color variables by (color,
    # index), then auxiliary variables by (name, index)
    if v.aux:
        return (1, v.aux, v.index)
    return (0, v.color, v.index)


def test_varid_order_is_the_reference_order():
    rng = random.Random(12)
    for _ in range(50):
        pool = [
            zvar(rng.randint(1, 4), rng.randint(1, 5)) if rng.random() < 0.6
            else aux_var(rng.choice("stwxy"), rng.randint(1, 5))
            for _ in range(rng.randint(2, 12))
        ]
        assert sorted(pool) == sorted(pool, key=reference_sort_key)
        assert MultiLaurent.zero(pool).vars == tuple(sorted(set(pool), key=reference_sort_key))


@pytest.mark.parametrize(
    "args",
    # a color or index must be exactly an int (no float, no bool), and an
    # auxiliary index is 1-based too
    [(0, 1), (1, 0), (1, 1, "w"), (1.5, 1), (True, 1), (1, True), (0, 1.5, "w"), (0, 0, "w")],
)
def test_varid_rejects_bad_fields(args):
    with pytest.raises(ValueError):
        VarId(*args)


def test_varid_round_trips_and_hashes():
    f = MultiLaurent.var_power(Z1, 2, qp(1)) + MultiLaurent.var_power(aux_var("w", 3), -1)
    for v in (Z1, W, aux_var("w", 3)):
        for back in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v)):
            assert back == v and type(back) is VarId
            assert (back.color, back.index, back.aux) == (v.color, v.index, v.aux)
    for back in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert back.vars == f.vars and back.terms == f.terms
    assert hash(zvar(1, 1)) == hash(VarId(1, 1)) and zvar(1, 1) == VarId(1, 1)
    assert hash(aux_var("w")) == hash(VarId(0, 1, "w"))
    assert zvar(1, 1) != aux_var("w")
    assert len({zvar(1, 1), VarId(1, 1), aux_var("w"), aux_var("w", 1)}) == 2


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
    assert expanded(h) == expanded(MultiLaurent((Z1, Y1), {(2, -1): 1}))
    assert f + 0 == f
    assert (f - f).is_zero()
    # a registry slot every term leaves at 0 can be dropped, a used one not
    wide = h.with_vars((W,))
    assert wide.without_vars((W,)).vars == h.vars
    assert expanded(wide.without_vars((W,))) == expanded(h)
    with pytest.raises(ValueError):
        wide.without_vars((Y1,))


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


def test_exact_divide_decides_by_line_remainders_without_substituting(monkeypatch):
    # each substitution line's remainder decides, with no substitution:
    # z1 w - c z2 by z1 - c z2 has value c - c at z = 1 but two lines of
    # one term each, and a divisible F plus a term on one of its lines
    # leaves a remainder on that line only
    calls = []
    substitute = MultiLaurent.substitute

    def counted(self, *args):
        calls.append(args)
        return substitute(self, *args)

    monkeypatch.setattr(MultiLaurent, "substitute", counted)
    for c in (RatQ.one(), qp(2), qp(-1, Fraction(-3, 2))):
        num = MultiLaurent((Z1, Z2, W), {(1, 0, 1): 1, (0, 1, 0): -c})
        divisible = num.mul_binomial(1, Z1, -c, Z2)
        on_a_line = divisible + MultiLaurent((Z1, Z2, W), {(0, 2, 1): 1})
        for f in (num, num + MultiLaurent.var_power(Z1, 3), on_a_line):
            with pytest.raises(NotDivisible):
                f.exact_div_binomial(Z1, Z2, c)
        assert divisible.exact_div_binomial(Z1, Z2, c) == num
    assert not calls


def test_not_divisible_text_names_the_binomial():
    # the kernel raises with the divisor's parts and formats them on demand
    num = MultiLaurent.var_power(Z1, 2) + 1
    cases = [
        (qp(2), "not divisible by z[1,1] - (q^2) z[1,2]"),
        (qp(-3, -1), "not divisible by z[1,1] - (-q^-3) z[1,2]"),
        (qp(0, Fraction(-3, 2)), "not divisible by z[1,1] - (-3/2) z[1,2]"),
        (RatQ.one(), "not divisible by z[1,1] - (1) z[1,2]"),
    ]
    for c, text in cases:
        with pytest.raises(NotDivisible) as info:
            num.exact_div_binomial(Z1, Z2, c)
        assert str(info.value) == text
    assert str(NotDivisible("remainder")) == "remainder"


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


def reference_exact_div_binomial(f, vi, vj, c):
    """Layered synthetic division by (z_vi - c z_vj), c any nonzero scalar
    of Q[q, q^-1]: peel the quotient h of f = h (z_vi - c z_vj) off one
    z_vi-layer at a time from the top, carrying c z_vj h one layer down; a
    carry left below the lowest layer is a remainder."""
    if f.is_zero():
        return f
    qc = RatQ.coerce(c).num.terms
    f = from_packed(f).with_vars((vi, vj))
    pi, pj, pq = f.vars.index(vi), f.vars.index(vj), len(f.vars)

    def down(key, ej, eq):  # z_vi^-1 z_vj^ej q^eq times the monomial key
        key = list(key)
        key[pi] -= 1
        key[pj] += ej
        key[pq] += eq
        return tuple(key)

    def add(terms, key, co):
        co += terms.get(key, 0)
        if co:
            terms[key] = co
        else:
            del terms[key]

    layers = {}
    for key, co in f.terms.items():
        layers.setdefault(key[pi], []).append((down(key, 0, 0), co))
    lo, hi = min(layers), max(layers)
    quot, carry = {}, {}
    for k in range(hi, lo - 1, -1):
        nxt = {}
        for key, co in layers.get(k, ()):
            add(nxt, key, co)
        for s, a in qc.items():
            for key, co in carry.items():
                add(nxt, down(key, 1, s), co * a)
        carry = nxt
        if k > lo:
            quot.update(carry)
    if carry:
        raise NotDivisible("remainder")
    return Reference._raw(f.vars, quot)


def division_matches_reference(f, vi, vj, c) -> bool:
    """Assert that exact_div_binomial and the synthetic division agree on
    divisibility, registry and terms; return whether f was divisible."""
    try:
        want = reference_exact_div_binomial(f, vi, vj, c)
    except NotDivisible:
        with pytest.raises(NotDivisible):
            f.exact_div_binomial(vi, vj, c)
        return False
    got = f.exact_div_binomial(vi, vj, c)
    assert (got.vars, expanded(got)) == (want.vars, want.terms)
    return True


def test_exact_division_matches_synthetic_division():
    # Laurent exponents, rational q-monomials, both variable orders, a
    # variable outside the registry, divisible and non-divisible inputs
    rng = random.Random(45)
    pool = [Z1, Z2, Y1, W]
    seen = set()
    for _ in range(300):
        vs = rng.sample(pool, rng.randint(1, 3))
        f = random_poly(rng, vs, max_terms=5, exp_range=3)
        c = random_q_monomial(rng)
        vi, vj = rng.sample(pool, 2)
        if rng.random() < 0.5:
            f = f * binom(vi, c, vj).scale(random_q_monomial(rng))
        absent = (vi not in f.vars, vj not in f.vars)
        divisible = division_matches_reference(f, vi, vj, c)
        seen.add(("divisible", divisible))
        seen.add(("vi first", vi < vj))
        seen.update(("absent", k) for k, gone in enumerate(absent) if gone)
        seen.add(("rational", any(isinstance(a, Fraction) for a in c.num.terms.values())))
    assert seen == {
        ("divisible", True), ("divisible", False), ("vi first", True), ("vi first", False),
        ("absent", 0), ("absent", 1), ("rational", True), ("rational", False),
    }
    assert division_matches_reference(MultiLaurent.zero((Z1,)), Z1, Z2, qp(1))


def test_exact_division_matches_synthetic_division_on_printed_product(monkeypatch):
    # every numerator the reduction of a printed A1 product divides
    build = ShuffleAlgebra(builtin_cartan("A1"))
    alg = ShuffleAlgebra(builtin_cartan("A1"), orientation="printed")
    f = build.word_image(parse_word("a1:-2 a1:1"))
    g = build.word_image(parse_word("a1:2 a1:2"))
    calls = []
    divide = MultiLaurent._exact_div_binomial

    def recorded(self, vi, vj, a, s):
        calls.append((self, (vi, vj, qp(s, a))))
        return divide(self, vi, vj, a, s)

    monkeypatch.setattr(MultiLaurent, "_exact_div_binomial", recorded)
    with pytest.raises(ClosureViolation):
        alg.mul(f, g)
    monkeypatch.undo()
    outcomes = [division_matches_reference(num, *args) for num, args in calls]
    assert True in outcomes and False in outcomes


def test_exact_division_needs_a_q_monomial():
    f = binom(Z1, qp(1), Z2) * binom(Z1, qp(0), Z2)
    for c in (LaurentQ({0: 1, 1: 1}), RatQ(LaurentQ({0: 1, 1: 1})), 0):
        with pytest.raises(ValueError):
            f.exact_div_binomial(Z1, Z2, c)


def test_divisible_iff_substitution_vanishes():
    # substitution is the division's independent reference: three
    # variables, Laurent exponents, both variable orders, rational a
    rng = random.Random(42)
    seen = set()
    for _ in range(300):
        vs = [Z1, Z2, Y1]
        f = random_poly(rng, vs, max_terms=4)
        c = random_q_monomial(rng)
        vi, vj = rng.sample(vs, 2)
        if rng.random() < 0.5:
            f = f * binom(vi, c, vj).scale(random_q_monomial(rng))
        vanishes = f.substitute(vi, c, vj).is_zero()
        try:
            f.exact_div_binomial(vi, vj, c)
            divisible = True
        except NotDivisible:
            divisible = False
        assert divisible == vanishes
        seen.add(("divisible", divisible))
        seen.add(("vi first", vi < vj))
        seen.add(("rational", any(a.denominator != 1 for a in c.num.terms.values())))
        seen.add(("laurent", any(e < 0 for key in f.exponents() for e in key)))
    assert seen == {
        ("divisible", True), ("divisible", False), ("vi first", True), ("vi first", False),
        ("rational", True), ("rational", False), ("laurent", True), ("laurent", False),
    }


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
    assert expanded(g) == expanded(MultiLaurent((Z1, Z2), {(2, 1): 1}))


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


# ---------- the integer kernel against exact evaluation ----------

KERNEL_VARS = (Z1, Z2, Y1, W)


def random_kernel_poly(rng, vs):
    """Old-format terms {z-exponents: RatQ}: Fraction coefficients, z and
    q exponents in -4..4, up to two q-powers per monomial."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        key = tuple(rng.randint(-4, 4) for _ in vs)
        qt = {rng.randint(-4, 4): random_fraction(rng, nonzero=True) for _ in range(rng.randint(1, 2))}
        terms[key] = RatQ(LaurentQ(qt))
    return MultiLaurent(vs, terms), terms


def old_format_value(vs, terms, q0, pt):
    """Value of {z-exponents: RatQ} terms, computed through RatQ."""
    total = Fraction(0)
    for key, c in terms.items():
        v = c.eval_at(q0)
        for var, e in zip(vs, key):
            v *= pt[var] ** e
        total += v
    return total


def random_point(rng):
    q0 = random_q_point(rng)
    vals = set()
    while len(vals) < len(KERNEL_VARS):
        vals.add(random_fraction(rng, nonzero=True))
    return q0, dict(zip(KERNEL_VARS, sorted(vals)))


def test_kernel_matches_exact_evaluation():
    rng = random.Random(4242)
    for _ in range(200):
        vs = tuple(rng.sample(KERNEL_VARS, rng.randint(2, 4)))
        f, fterms = random_kernel_poly(rng, vs)
        g, _ = random_kernel_poly(rng, tuple(rng.sample(KERNEL_VARS, 2)))
        q0, pt = random_point(rng)
        val = lambda p, point=pt: p.eval_at(q0, point)  # noqa: E731
        fv = val(f)
        assert fv == old_format_value(f.vars, fterms, q0, pt)
        assert val(f * g) == fv * val(g)
        assert val(f + g) == fv + val(g)
        lq = random_laurent(rng, nonzero=True)
        assert val(f.scale(lq)) == lq.eval_at(q0) * fv
        vi, vj = rng.sample(KERNEL_VARS, 2)
        a, b = random_q_monomial(rng), RatQ(random_laurent(rng, nonzero=True))
        assert val(f.mul_binomial(a, vi, b, vj)) == (a.eval_at(q0) * pt[vi] + b.eval_at(q0) * pt[vj]) * fv
        d = rng.randint(-3, 3)
        assert val(f.var_shift(vi, d, a)) == a.eval_at(q0) * pt[vi] ** d * fv
        swapped = dict(pt)
        swapped[vi], swapped[vj] = pt[vj], pt[vi]
        assert val(f.divided_difference(vi, vj)) == (fv - val(f, swapped)) / (pt[vi] - pt[vj])
        # exact division: a product comes back, a product plus a monomial cannot
        c = random_q_monomial(rng)
        prod = f.mul_binomial(1, vi, -c, vj)
        assert val(prod.exact_div_binomial(vi, vj, c)) == fv
        with pytest.raises(NotDivisible):
            (prod + MultiLaurent.monomial({vi: rng.randint(-2, 2)})).exact_div_binomial(vi, vj, c)
        # substitution of one and of several variables into a fresh t
        t = aux_var("t")
        moved = dict(pt)
        moved[t] = random_fraction(rng, nonzero=True)
        picks = rng.sample(f.vars, rng.randint(1, len(f.vars)))
        scalars = [random_q_monomial(rng) for _ in picks]
        at_t = dict(moved)
        for v, s in zip(picks, scalars):
            at_t[v] = s.eval_at(q0) * moved[t]
        assert val(f.substitute(tuple(picks), tuple(scalars), t), moved) == val(f, at_t)
        one = dict(moved)
        one[picks[0]] = scalars[0].eval_at(q0) * moved[t]
        assert val(f.substitute(picks[0], scalars[0], t), moved) == val(f, one)
        # relabeling by a permutation of the registry, and extending it
        perm = dict(zip(f.vars, rng.sample(f.vars, len(f.vars))))
        assert val(f.relabel(perm)) == val(f, {v: pt[perm.get(v, v)] for v in KERNEL_VARS})
        wider = f.with_vars(KERNEL_VARS)
        assert wider.vars == KERNEL_VARS and val(wider) == fv


def test_substitute_into_a_registry_variable():
    # z1 -> q z2 where z2 is already present: the exponents of z2 add up
    f = MultiLaurent.monomial({Z1: 2, Z2: -1}) + MultiLaurent.var_power(Z2, 3)
    g = f.substitute(Z1, qp(1), Z2)
    assert g == MultiLaurent.var_power(Z2, 1, qp(2)) + MultiLaurent.var_power(Z2, 3)
    # several variables at once, one of them the target itself
    h = MultiLaurent.monomial({Z1: 1, Z2: 1})
    assert h.substitute((Z1, Z2), (qp(1), qp(-3)), Z2) == MultiLaurent.var_power(Z2, 2, qp(-2))
    with pytest.raises(ValueError):
        h.substitute(Z1, RatQ(LaurentQ({0: 1, 1: 1})), W)
    with pytest.raises(ValueError):
        h.substitute((Z1, Z1), (qp(1), qp(1)), W)


def test_term_lines_from_constructor_format():
    f = MultiLaurent(
        (Z1, Y1),
        {
            (2, -1): RatQ(LaurentQ({0: Fraction(-3, 2), 2: 1})),
            (0, 0): RatQ(LaurentQ({-1: -1})),
            (0, 1): Fraction(4, 2),
        },
    )
    assert f.term_lines() == [
        "(-1) q^-1 | 1",
        "(2) q^0 | z[2,1]^1",
        "(-3/2) q^0 | z[1,1]^2 z[2,1]^-1",
        "(1) q^2 | z[1,1]^2 z[2,1]^-1",
    ]
    # equal keys add up: 1/3 + 2/3 renders as 1
    g = MultiLaurent((Z1,), {(1,): qp(1, Fraction(1, 3))}) + MultiLaurent((Z1,), {(1,): qp(1, Fraction(2, 3))})
    assert g.term_lines() == ["(1) q^1 | z[1,1]^1"]


def test_scalars_outside_the_laurent_ring_raise():
    from qshuffle.formal import Window, delta_series

    bad = RatQ(1, LaurentQ({2: 1, 0: 1}))
    p = binom(Z1, qp(2), Z2)
    with pytest.raises(ValueError):
        MultiLaurent.constant(bad)
    with pytest.raises(ValueError):
        p.scale(bad)
    with pytest.raises(ValueError):
        RatFun(p).scale(bad)
    with pytest.raises(ValueError):
        delta_series(Z1, 1, W, Window(-2, 2)).scale(bad)
    # a Laurent scalar with several q-powers is fine
    assert p.scale(RatQ(LaurentQ({2: 1, 0: 1}))) == p * (
        MultiLaurent.constant(qp(2)) + MultiLaurent.constant(1)
    )
    assert p != bad
    assert RatFun(p) != bad and bad != RatFun(p) and RatFun.from_scalar(1) != bad


def test_non_integer_exponents_raise():
    # 1.5 used to truncate to 1 in the constructor and to be stored as a
    # float exponent by var_power
    with pytest.raises(ValueError):
        MultiLaurent([Z1], {(1.5,): 1})
    with pytest.raises(ValueError):
        MultiLaurent.var_power(Z1, 1.5)
    with pytest.raises(ValueError):
        MultiLaurent.monomial({Z1: 2, Z2: 0.5})
    # coeff reads exponents as the constructors do: 2.5 used to read 0 and
    # 2.0 to raise TypeError from the key packing
    for exps in ((2.5,), (2.0,)):
        with pytest.raises(ValueError):
            MultiLaurent.var_power(Z1, 2).coeff(exps)
    assert MultiLaurent([Z1], {(2,): 1}) == MultiLaurent.var_power(Z1, 2)


def test_coeff_and_within_read_the_variable_slots_only():
    # (2 + q^-1) z1^2 z2^-1 + (3/2) q^5 z1 + w: the q exponent is neither a
    # variable exponent for coeff nor a bounded slot for within
    p = MultiLaurent.monomial({Z1: 2, Z2: -1}, LaurentQ({0: 2, -1: 1}))
    p = p + MultiLaurent.monomial({Z1: 1}, qp(5, Fraction(3, 2))) + MultiLaurent.var_power(W, 1)
    assert p.coeff((2, -1, 0)) == LaurentQ({0: 2, -1: 1})
    assert p.coeff((1, 0, 0)) == LaurentQ({5: Fraction(3, 2)})
    assert p.coeff((0, 0, 0)).is_zero()
    wide = dict.fromkeys(p.vars, (-1, 2))
    assert p.within(wide) == p
    assert p.within({**wide, Z2: (0, 0)}) == p - p.within({**wide, Z2: (-1, -1)})
    assert p.within(dict.fromkeys(p.vars, (0, 1))) == MultiLaurent.var_power(W, 1) + p.within(
        {Z1: (1, 1), Z2: (0, 0), W: (0, 0)}
    )
    with pytest.raises(KeyError):  # every variable needs its bounds
        p.within({Z1: (0, 1)})


def test_binomial_inverse_is_a_truncated_geometric_series():
    # with x = c z_j / z_i (z_i dominant) or z_i / (c z_j) (z_j dominant),
    # (z_i - c z_j) times the expansion's first n + 1 terms is 1 - x^(n+1)
    for vi, vj in ((Z1, Z2), (Z2, Z1), (W, Y1)):
        for c in (qp(2), qp(-3, Fraction(2, 5)), RatQ(-1)):
            for n in (0, 1, 4):
                for dom, tail in (
                    (vi, MultiLaurent.monomial({vi: -1 - n, vj: n + 1}, c ** (n + 1))),
                    (vj, MultiLaurent.monomial({vi: n + 1, vj: -1 - n}, c ** (-1 - n))),
                ):
                    inv = series_head(vi, vj, c, n, dom)
                    assert len(inv.terms) == n + 1
                    assert inv * binom(vi, c, vj) == MultiLaurent.constant(1) - tail
    with pytest.raises(ValueError):
        series_head(Z1, Z2, LaurentQ({0: 1, 1: 1}), 2, Z1)
    with pytest.raises(ValueError):
        series_head(Z1, Z1, qp(1), 2, Z1)
    with pytest.raises(ValueError):
        series_head(Z1, Z2, qp(1), 2, W)


# ---------- every product against the two-loop references ----------


def reference_mul(f, g):
    """Product by a double loop over the smaller operand's terms and the
    larger one's, after aligning the registries."""
    a, b = from_packed(f)._align(from_packed(g))
    ta, tb = a.terms, b.terms
    if len(ta) > len(tb):
        ta, tb = tb, ta
    out = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            key = tuple(map(add, ea, eb))
            s = out.get(key, 0) + ca * cb
            if s:
                out[key] = coefficient(s)
            else:
                del out[key]
    return Reference._raw(a.vars, out)


def q_terms(c) -> dict:
    return RatQ.coerce(c).num.terms


def reference_times(f, v, delta, c):
    """f times v^delta (v None for no variable) times the scalar c, one
    q-power of c after the other, v joining the registry."""
    p = from_packed(f) if v is None else from_packed(f).with_vars((v,))
    n = len(p.vars)
    out = {}
    for s, a in q_terms(c).items():
        off = [0] * (n + 1)
        if v is not None:
            off[p.vars.index(v)] = delta
        off[n] = s
        for key, co in p.terms.items():
            key = tuple(map(add, key, off))
            t = out.get(key, 0) + co * a
            if t:
                out[key] = coefficient(t)
            else:
                del out[key]
    return Reference._raw(p.vars, out)


def reference_var_power(v, e, c=1):
    return reference_times(MultiLaurent.constant(c, (v,)), v, e, 1)


def reference_mul_binomial(f, a, vi, b, vj):
    return (reference_times(f, vi, 1, a) + reference_times(f, vj, 1, b)).with_vars((vi, vj))


DIFF_VARS = (Z1, Z2, Z3, Y1, W, aux_var("t", 2))


def random_scalar(rng):
    """A nonzero int, Fraction, LaurentQ or Laurent RatQ."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice([-2, -1, 1, 2, 3])
    if kind == 1:
        return random_fraction(rng, nonzero=True)
    lq = random_laurent(rng, max_terms=3, exp_range=2, nonzero=True)
    return lq if kind == 2 else RatQ(lq)


def product_pool(seed):
    """Random polynomials over random registries (empty ones and auxiliary
    variables included), the zero polynomial, constants, and pairs whose
    product cancels terms or whose half-integral coefficients multiply to
    integers."""
    rng = random.Random(seed)
    pool = []
    for _ in range(24):
        vs = tuple(rng.sample(DIFF_VARS, rng.randint(0, 4)))
        terms = {
            tuple(rng.randint(-2, 2) for _ in vs): random_scalar(rng)
            for _ in range(rng.randint(1, 5))
        }
        pool.append(MultiLaurent(vs, terms))
    x, y = MultiLaurent.var_power(Z1, 1), MultiLaurent.var_power(W, 1, qp(1))
    half = MultiLaurent.var_power(Z2, 1, Fraction(1, 2))
    pool += [
        MultiLaurent.zero(),
        MultiLaurent.zero((Z1, W)),
        MultiLaurent.constant(Fraction(3, 2)),
        MultiLaurent.constant(LaurentQ({-1: 2, 1: Fraction(1, 2)}), (Y1,)),
        x + y,
        x - y,
        half + x.scale(Fraction(1, 2)),
        half - x.scale(Fraction(1, 2)),
        MultiLaurent.var_power(Y1, -1, 2),
    ]
    return pool


def assert_same(got, want):
    assert all(got.terms.values())  # no cancelled key is stored
    assert (got.vars, expanded(got)) == (want.vars, want.terms)
    # decoded coefficients are nonzero, and int whenever integral
    for c in expanded(got).values():
        assert c and (type(c) is int or (type(c) is Fraction and c.denominator != 1)), c


def test_mul_matches_the_double_loop():
    pool = product_pool(1401)
    cancelled = zero = 0
    for f in pool:
        for g in pool:
            got, want = f * g, reference_mul(f, g)
            assert_same(got, want)
            cancelled += len(expanded(got)) < len(expanded(f)) * len(expanded(g))
            zero += not got.terms
    # the pool reaches products whose terms merge or cancel, and zero ones
    assert cancelled > 0 and zero > 0


def test_scalar_products_match_the_reference_on_either_side():
    pool = product_pool(1402)
    scalars = [0, 1, -3, Fraction(2, 3), Fraction(-1, 2), LaurentQ({-2: 1, 3: Fraction(5, 4)}),
               RatQ.q_power(1, -2), RatQ(LaurentQ({0: 2, 1: Fraction(1, 2)}))]
    for f in pool:
        for c in scalars:
            want = reference_times(f, None, 0, c)
            one = MultiLaurent.constant(c)
            for got in (f.scale(c), f * c, c * f, f * one, one * f):
                assert_same(got, want)


def test_var_shift_and_var_power_match_the_reference():
    rng = random.Random(1403)
    pool = product_pool(1403)
    for f in pool:
        for _ in range(4):
            v, d = rng.choice(DIFF_VARS), rng.randint(-3, 3)
            c = rng.choice([None, 0, random_scalar(rng)])
            want = reference_times(f, v, d, 1 if c is None else c)
            assert_same(f.var_shift(v, d) if c is None else f.var_shift(v, d, c), want)
            if c is not None:
                assert_same(MultiLaurent.var_power(v, d, c), reference_var_power(v, d, c))
    for v in DIFF_VARS:
        assert_same(MultiLaurent.var_power(v, -2), reference_var_power(v, -2))


def test_mul_binomial_matches_the_reference():
    rng = random.Random(1404)
    pool = product_pool(1404)
    for f in pool:
        for _ in range(4):
            vi, vj = rng.sample(DIFF_VARS, 2)
            a, b = random_scalar(rng), rng.choice([0, random_scalar(rng)])
            assert_same(f.mul_binomial(a, vi, b, vj), reference_mul_binomial(f, a, vi, b, vj))
        # one variable twice: a z + b z, cancelling to zero when b = -a
        v, a = rng.choice(DIFF_VARS), random_scalar(rng)
        for b in (a, -a):
            got = f.mul_binomial(a, v, b, v)
            assert_same(got, reference_mul_binomial(f, a, v, b, v))
        assert not got.terms
