"""The three benchmark workloads: seeded inputs, the operations on them and
the check that decides whether each operation's output is correct.

Every workload is a closed loop with one client: the runner executes one
operation, checks it, and only then starts the next.  A workload builds
its *deck* once, the fixed list of operations of a run, and the runner
makes whole passes over it, each in a seeded order.  The seed only changes
inputs in ways that keep every operation's cost (which word of a pair of
matched cost, a shift of modes that multiplies a product by a monomial),
so every run times the same mix of costs however many passes fit and
whatever its seed.  Decks hold 5 mod 10 operations: then the p50 and p90
ranks fall in the middle of the repeats of one operation, not between two
operations of different cost.

The library is passed in as ``lib`` (see ``load_library``) and every call
goes through a module or class attribute at call time, so that the tracer
in ``tracer.py`` can wrap those attributes from outside the library.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from itertools import permutations
from math import comb, factorial
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
CATALOGUE = BENCH_DIR / "words_catalogue.json"
# never holds bytecode: see load_library
NO_BYTECODE = BENCH_DIR.parent / ".perfbench" / "no-bytecode"

# the library's modules, bottom layer first; ``cartan`` is set-up only
LIB_MODULES = ("qring", "cartan", "poly", "ratfun", "shuffle", "formal", "identities", "cli")


def load_library() -> SimpleNamespace:
    """Import qshuffle afresh from ``src/`` next to this directory.

    Any qshuffle already imported is dropped first, so a repeated call
    measures a whole import.  Bytecode is looked for in a directory that
    never holds any, and never written, so every import compiles the
    modules from source whatever ``__pycache__`` the checkout holds.
    Raises ImportError when the checkout holds no library, or when the
    import resolves to a copy elsewhere.
    """
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(NO_BYTECODE)
    for name in [m for m in sys.modules if m == "qshuffle" or m.startswith("qshuffle.")]:
        del sys.modules[name]
    src = str(SRC_DIR)
    if src not in sys.path:
        sys.path.insert(0, src)
    mods = {name: importlib.import_module(f"qshuffle.{name}") for name in LIB_MODULES}
    origin = Path(sys.modules["qshuffle"].__file__).resolve()
    if SRC_DIR.resolve() not in origin.parents:
        raise ImportError(f"qshuffle imported from {origin}, not from {SRC_DIR}")
    return SimpleNamespace(**mods)


class Op:
    """One public call (``run``) and the verdict on its output (``check``)."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


CLOSURE = "ClosureViolation"


def render(lib, el) -> str:
    """The CLI's JSON rendering of a shuffle element, as canonical text."""
    return json.dumps(lib.cli.element_json(el), sort_keys=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------- words ----------

WORD_TYPES = ("A1", "A2", "B2", "G2", "B3", "D4")


def words_op(lib, alg, tag, word, ref_digest) -> Op:
    """word_image, wheel_check for every colour pair, CLI rendering."""
    rank = alg.cartan.rank
    pairs = [(a, b) for a in range(1, rank + 1) for b in range(1, rank + 1) if a != b]

    def run():
        el = alg.word_image(word)
        wheels = [alg.wheel_check(el, a, b) for a, b in pairs]
        return wheels, render(lib, el)

    def check(out):
        wheels, text = out
        return all(wheels) and digest(text) == ref_digest

    return Op(f"words.{tag}.L{len(word)}", run, check)


class Words:
    """``word_image`` on the default-orientation product path, oracle off.

    The inputs come from ``words_catalogue.json``: per (type, length)
    stratum, pairs of words of matched cost in cost order, whose reference
    digests were recorded on oracle-enabled algebras (see
    ``make_catalogue.py``).  The deck takes the pairs at PAIR_RANKS, a
    cheap, a middle and a dear one, of each of the 17 strata, and the seed
    picks one word of each pair: 51 operations.
    """

    PAIR_RANKS = (1, 5, 9)

    def __init__(self, lib, seed):
        self.lib = lib
        with open(CATALOGUE) as fh:
            self.strata = json.load(fh)["strata"]
        self.algebras = {
            tag: lib.shuffle.ShuffleAlgebra(lib.cartan.builtin_cartan(tag))
            for tag in WORD_TYPES
        }
        self.rng = random.Random(seed)

    def _op(self, stratum, entry):
        word = [tuple(x) for x in entry["word"]]
        tag = stratum["type"]
        return words_op(self.lib, self.algebras[tag], tag, word, entry["digest"])

    def warmup_op(self):
        first = self.strata[0]
        return self._op(first, first["blocks"][0][0])

    def deck(self):
        return [
            self._op(stratum, pair[self.rng.randrange(len(pair))])
            for stratum in self.strata
            for pair in (stratum["blocks"][r] for r in self.PAIR_RANKS)
        ]


# ---------- rational ----------

# criterion 5's mode grids
SERRE_A2 = [((m1, m2), s) for m1 in (-1, 0, 1) for m2 in (-1, 0, 1) for s in (-1, 0, 1)]
SERRE_B2 = [
    ((m1, m2, m3), s) for m1 in (0, 1) for m2 in (0, 1) for m3 in (0, 1) for s in (0, 1)
]
MODES = range(-2, 3)


def serre_op(alg, tag, alpha, beta, modes, s) -> Op:
    return Op(
        f"serre.{tag}",
        lambda: alg.serre_image(alpha, beta, modes, s),
        lambda el: el.is_zero(),
    )


def assoc_op(alg, tag, f, g, h) -> Op:
    def run():
        return alg.mul(alg.mul(f, g), h), alg.mul(f, alg.mul(g, h))

    return Op(f"assoc.{tag}", run, lambda out: out[0] == out[1])


def printed_op(lib, alg, word, expect) -> Op:
    """A two-letter product in the printed orientation, in rational form,
    or the ClosureViolation it must raise (``expect`` is CLOSURE)."""

    def run():
        try:
            return alg.to_rational(alg.word_image(word))
        except lib.shuffle.ClosureViolation:
            return CLOSURE

    return Op("printed.A2", run, lambda out: out == expect)


def classical_serre_op(lib, alg, modes, s) -> Op:
    """A2 Serre alternator with classical binomials in place of the
    q-binomials; it does not vanish, so expecting zero is a wrong
    expectation (a checker control)."""

    def run():
        acc = lib.poly.MultiLaurent.zero()
        for r in range(3):
            c = (-1) ** r * comb(2, r)
            for perm in permutations(modes):
                word = [(1, x) for x in perm[:r]] + [(2, s)] + [(1, x) for x in perm[r:]]
                acc = acc + alg.word_image(word).numerator.scale(c)
        return acc

    return Op("control.serre_classical", run, lambda acc: acc.is_zero())


class Rational:
    """The shuffle layer with the rational oracle on for every product.

    The deck, 25 operations: nine A2 Serre alternators (criterion 5's
    grid with s = -1), the six B2 alternators of criterion 5's grid with
    m1 = 0 and mixed modes (the dearest operations, of about equal cost,
    so that p90 falls among them), two associativity triples for each of
    A1, A2 and B2, and four printed-orientation A2 products: an ordered
    cross-colour word, which closes and must equal the default
    orientation's rational form, and the words a1 a1, a2 a2 and a2 a1,
    which must raise ClosureViolation.

    The shapes of the triples are drawn once, as in criterion 7.  The seed
    moves the modes of each colour of a triple by one shift that keeps
    them in [-2, 2], which multiplies every product by a monomial and
    leaves its cost unchanged, and draws the printed words' modes.
    """

    SERRE_A2_CASES = SERRE_A2[::3]
    SERRE_B2_CASES = [c for c in SERRE_B2 if c[0][0] == 0 and len(set(c[0])) > 1]
    ASSOC_SHAPES = 2
    RAISING = ((1, 1), (2, 2), (2, 1))

    def __init__(self, lib, seed):
        self.lib = lib
        sa = lib.shuffle.ShuffleAlgebra
        bc = lib.cartan.builtin_cartan
        self.algebras = {tag: sa(bc(tag), oracle=True) for tag in ("A1", "A2", "B2")}
        self.printed = sa(bc("A2"), orientation="printed", oracle=True)
        shapes = random.Random(70707)
        self.shapes = {
            tag: [
                [(shapes.randrange(1, alg.cartan.rank + 1), shapes.choice(MODES)) for _ in range(3)]
                for _ in range(self.ASSOC_SHAPES)
            ]
            for tag, alg in self.algebras.items()
        }
        self.rng = random.Random(seed)

    def warmup_op(self):
        return printed_op(self.lib, self.printed, [(1, 0), (1, 0)], CLOSURE)

    def _shifted(self, letters):
        for c in sorted({c for c, _ in letters}):
            modes = [m for cc, m in letters if cc == c]
            s = self.rng.randint(MODES[0] - min(modes), MODES[-1] - max(modes))
            letters = [(cc, m + s if cc == c else m) for cc, m in letters]
        return letters

    def deck(self):
        """The closing word's reference, its rational form in the default
        orientation, is computed here, outside any timed operation."""
        rng, a2, b2 = self.rng, self.algebras["A2"], self.algebras["B2"]
        ops = [serre_op(a2, "A2", 1, 2, modes, s) for modes, s in self.SERRE_A2_CASES]
        ops += [serre_op(b2, "B2", 2, 1, modes, s) for modes, s in self.SERRE_B2_CASES]
        for tag, alg in self.algebras.items():
            for shape in self.shapes[tag]:
                letters = self._shifted(shape)
                ops.append(assoc_op(alg, tag, *(alg.generator(c, m) for c, m in letters)))
        word = [(1, rng.choice(MODES)), (2, rng.choice(MODES))]
        ops.append(printed_op(self.lib, self.printed, word, a2.to_rational(a2.word_image(word))))
        for c1, c2 in self.RAISING:
            word = [(c1, rng.choice(MODES)), (c2, rng.choice(MODES))]
            ops.append(printed_op(self.lib, self.printed, word, CLOSURE))
        return ops


# ---------- identities ----------


def pole_sum_op(lib, m, q_inverted, coeff=None) -> Op:
    """build_pole_sum; the genuine sum vanishes, the classical-binomial
    control (``coeff``) must not.  Both have (m+2)(m+1)! summands."""
    expect_zero = coeff is None
    summands = (m + 2) * factorial(m + 1)
    kind = f"pole.m{m}" if expect_zero else f"pole_control.m{m}"

    def check(ps):
        return ps.is_zero() == expect_zero and ps.term_count == summands

    return Op(
        kind,
        lambda: lib.identities.build_pole_sum(m, q_inverted=q_inverted, coeff=coeff),
        check,
    )


def classical_coeff(m):
    return lambda k: comb(m + 1, k)


def pf_op(lib, perturb) -> Op:
    expect = perturb is None
    return Op(
        "partial_fraction",
        lambda: lib.identities.partial_fraction_check(perturb),
        lambda ok: ok is expect,
    )


def window_op(lib, m, lo, hi, q_inverted, rhs_scale=None) -> Op:
    """window_identity_report: exactly the q^-m reading must match."""
    window = lib.formal.Window(lo, hi)
    return Op(
        f"window.m{m}",
        lambda: lib.identities.window_identity_report(
            m, window, q_inverted=q_inverted, rhs_scale=rhs_scale
        ),
        lambda rep: rep["matched"] == ["qminus"],
    )


class Identities:
    """Pole sums, partial fractions and windowed delta identities.

    The deck, 15 operations: the partial-fraction check and its 5
    mutations, the m = 1 pole sum in both orientations, the m = 2 pole sum
    twice in each, the m = 1 classical-binomial control, and the window
    reports for m = 1 on -6:6 and m = 2 on -3:3.  The seed sets the
    orientation of the window reports.
    """

    WINDOWS = ((1, -6, 6), (2, -3, 3))

    def __init__(self, lib, seed):
        self.lib = lib
        self.rng = random.Random(seed)
        self.mutations = (None,) + tuple(lib.identities.PF_MUTATIONS)

    def warmup_op(self):
        return pf_op(self.lib, None)

    def deck(self):
        lib = self.lib
        ops = [pf_op(lib, p) for p in self.mutations]
        ops += [pole_sum_op(lib, 1, qi) for qi in (False, True)]
        ops += [pole_sum_op(lib, 2, qi) for qi in (False, True) for _ in range(2)]
        ops.append(pole_sum_op(lib, 1, False, coeff=classical_coeff(1)))
        ops += [window_op(lib, m, lo, hi, self.rng.random() < 0.5) for m, lo, hi in self.WINDOWS]
        return ops


WORKLOADS = {"words": Words, "rational": Rational, "identities": Identities}


# ---------- checker controls ----------


def control_ops(lib, workload) -> list[Op]:
    """Operations paired with known-bad expectations: every one of them
    must be counted as failed."""
    if isinstance(workload, Words):
        stratum = workload.strata[0]
        entry = stratum["blocks"][0][0]
        flipped = dict(entry, digest=entry["digest"][::-1])
        return [workload._op(stratum, flipped)]
    if isinstance(workload, Rational):
        return [classical_serre_op(lib, workload.algebras["A2"], (1, -1), 0)]
    return [
        Op(
            "control.pole_expect_zero",
            lambda: lib.identities.build_pole_sum(1, coeff=classical_coeff(1)),
            lambda ps: ps.is_zero(),
        ),
        window_op(lib, 1, -6, 6, False, rhs_scale=lib.qring.RatQ.q_power(1)),
    ]
