"""Command-line interface.

Subcommands: ``product``, ``serre``, ``wheel``, ``identities``,
``selftest``.  Every run emits one deterministic JSON report on stdout
(and to ``--json PATH`` when given); progress chatter goes to stderr.

Exit codes: 0 success, 2 usage, parse or ``--json`` write error, 3
closure violation during a product, 4 a verification reported failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import __version__
from .cartan import CartanData, builtin_cartan
from .formal import Window
from .identities import (
    partial_fraction_check,
    progress_stderr,
    verify_rational_vanishing,
    window_identity_report,
)
from .poly import MultiLaurent
from .qring import q_binomial
from .ratfun import BinomialFactor
from .shuffle import ClosureViolation, ShuffleAlgebra, format_word, parse_word


class UsageError(Exception):
    pass


# build_pole_sum(6) takes 16-21 s and about 750-763 MB per orientation, so
# --m 6 would run about 33-42 s where --m 5 runs under 1 s (README has the times)
IDENTITIES_MAX_M = 5
# the widest --window (hi - lo) per m: under 30 s on symmetric windows and on
# windows ending at 0, the dearest m = 5 on -4:0 at 0.4 s (README has the times)
IDENTITIES_MAX_WINDOW = {1: 150, 2: 40, 3: 14, 4: 6, 5: 4}


def load_cartan(text: str) -> CartanData:
    import os

    if os.path.exists(text):
        try:
            with open(text) as fh:
                return CartanData.from_json_dict(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            raise UsageError(f"cannot read Cartan data from {text}: {exc}") from exc
    try:
        return builtin_cartan(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def parse_window(text: str) -> Window:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise UsageError("window must be written lo:hi")
    try:
        return Window(int(lo), int(hi))
    except ValueError as exc:
        raise UsageError(f"bad window {text!r}: {exc}") from exc


# ---------- JSON serialization ----------


def poly_json(p: MultiLaurent) -> list[str]:
    return p.term_lines()


def factor_json(f: BinomialFactor, mult: int) -> dict:
    return {"i": str(f.i), "j": str(f.j), "a": "1", "b": str(f.c), "mult": mult}


def element_json(el) -> dict:
    return {"degree": list(el.degree), "numerator": poly_json(el.numerator)}


def ratfun_json(r) -> dict:
    return {
        "num": poly_json(r.num),
        "den": [factor_json(f, m) for f, m in r.sorted_den()],
    }


def emit(report: dict, json_path: str | None):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


# ---------- commands ----------


def cmd_product(alg: ShuffleAlgebra, word_text: str):
    word = parse_word(word_text)
    el = alg.word_image(word)
    report = element_json(el)
    report["word"] = format_word(word)
    report["denominator"] = [
        factor_json(f, m)
        for f, m in sorted(alg.canonical_denominator(el.degree).items())
    ]
    return report, 0


def cmd_serre(alg: ShuffleAlgebra, alpha: int, beta: int, modes, s: int):
    el = alg.serre_image(alpha, beta, modes, s)
    ok = el.is_zero()
    report = {
        "alpha": alpha,
        "beta": beta,
        "modes": list(modes),
        "s": s,
        "degree": list(el.degree),
        "is_zero": ok,
    }
    if not ok:
        report["witness"] = poly_json(el.numerator)[:20]
    return report, 0 if ok else 4


def cmd_wheel(alg: ShuffleAlgebra, word_text: str):
    word = parse_word(word_text)
    el = alg.word_image(word)
    pairs = []
    ok = True
    rank = alg.cartan.rank
    for alpha in range(1, rank + 1):
        for beta in range(1, rank + 1):
            if alpha == beta:
                continue
            applicable = alg.wheel_applicable(el, alpha, beta)
            vanishes = alg.wheel_check(el, alpha, beta)
            ok = ok and vanishes
            pairs.append(
                {
                    "alpha": alpha,
                    "beta": beta,
                    "chain_length": 1 - alg.cartan.a(alpha, beta),
                    "applicable": applicable,
                    "vanishes": vanishes,
                }
            )
    report = {
        "word": format_word(word),
        "degree": list(el.degree),
        "pairs": pairs,
        "all_ok": ok,
    }
    return report, 0 if ok else 4


def cmd_identities(m: int, window: Window | None):
    if m < 1:
        raise UsageError("identities needs --m >= 1")
    if m > IDENTITIES_MAX_M:
        raise UsageError(f"identities supports --m up to {IDENTITIES_MAX_M}")
    width = IDENTITIES_MAX_WINDOW[m]
    if window is not None and window.hi - window.lo > width:
        raise UsageError(f"identities --m {m} supports --window widths hi - lo up to {width}")
    # a monomial of total degree -(m+1) lies in the window only if lo < 0 <= hi
    if window is not None and not window.lo < 0 <= window.hi:
        raise UsageError("identities --window decides only when lo < 0 <= hi")
    progress = progress_stderr if m >= 3 else None
    rep = verify_rational_vanishing(ms=(m,), progress=progress)
    report = {"m": m, "results": rep["results"], "all_zero": rep["all_zero"]}
    code = 0
    if m <= 2 and not rep["all_zero"]:
        code = 4
    if window is not None:
        wrep = window_identity_report(m, window)
        report["window_check"] = wrep
        if wrep["matched"] != ["qminus"]:
            code = 4
    return report, code


def cmd_selftest(alg: ShuffleAlgebra, seed: int):
    rng = random.Random(seed)
    checks = []

    def run(name, fn):
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a selftest failure is a report, not a crash
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append(
            {
                "name": name,
                "ok": ok,
                "detail": detail,
                "elapsed_ms": round(1000 * (time.perf_counter() - t0), 1),
            }
        )

    def q_combinatorics():
        for n in range(7):
            for p in range(n + 1):
                b = q_binomial(n, p)
                if b != b.bar() or b != q_binomial(n, n - p):
                    return False, f"binomial symmetry broke at ({n},{p})"
        return True, "bar-invariance and symmetry to n = 6"

    def closure():
        rank = alg.cartan.rank
        n = 0
        for _ in range(8):
            word = [
                (rng.randrange(1, rank + 1), rng.randrange(-1, 2))
                for _ in range(rng.randrange(1, 4))
            ]
            el = alg.word_image(word)
            if not alg.twisted_symmetry_check(el):
                return False, format_word(word)
            n += 1
        return True, f"{n} random words stayed in canonical form"

    def associativity():
        rank = alg.cartan.rank
        for _ in range(5):
            f, g, h = (
                alg.generator(rng.randrange(1, rank + 1), rng.randrange(-1, 2))
                for _ in range(3)
            )
            if alg.mul(alg.mul(f, g), h) != alg.mul(f, alg.mul(g, h)):
                return False, "associativity failed"
        return True, "5 random generator triples"

    def oracle():
        rank = alg.cartan.rank
        for _ in range(3):
            f = alg.generator(rng.randrange(1, rank + 1), rng.randrange(-1, 2))
            g = alg.generator(rng.randrange(1, rank + 1), rng.randrange(-1, 2))
            if alg.to_rational(alg.mul(f, g)) != alg.mul_oracle_rational(f, g):
                return False, "pipeline and rational sum disagree"
        return True, "3 products cross-checked against the rational sum"

    def wheel():
        rank = alg.cartan.rank
        hits = 0
        for _ in range(6):
            word = [
                (rng.randrange(1, rank + 1), rng.randrange(-1, 2))
                for _ in range(rng.randrange(2, 5))
            ]
            el = alg.word_image(word)
            for alpha in range(1, rank + 1):
                for beta in range(1, rank + 1):
                    if alpha == beta:
                        continue
                    if not alg.wheel_check(el, alpha, beta):
                        return False, format_word(word)
                    if alg.wheel_applicable(el, alpha, beta):
                        hits += 1
        return True, f"{hits} applicable wheel substitutions vanished"

    def serre():
        if alg.cartan.rank < 2:
            return True, "skipped (rank 1 has no Serre pair)"
        el = alg.serre_image(1, 2, [0] * (1 - alg.cartan.a(1, 2)), 0)
        return el.is_zero(), "modes all zero, s = 0"

    def identities():
        rep = verify_rational_vanishing(ms=(1,))
        return rep["all_zero"], "m = 1, both orientations"

    def partial_fractions():
        return partial_fraction_check(), "both rewriting steps"

    run("q-combinatorics", q_combinatorics)
    run("closure", closure)
    run("associativity", associativity)
    run("oracle", oracle)
    run("wheel", wheel)
    run("serre", serre)
    run("identities", identities)
    run("partial-fractions", partial_fractions)
    ok = all(c["ok"] for c in checks)
    return {"seed": seed, "checks": checks, "all_ok": ok}, 0 if ok else 4


# ---------- entry point ----------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cartan",
        default="A2",
        help="builtin tag (A1, A2, B2, ..., G2) or a JSON file path",
    )
    common.add_argument("--json", default=None, help="also write the report here")
    # identities builds no shuffle product, so it takes no orientation
    oriented = argparse.ArgumentParser(add_help=False, parents=[common])
    oriented.add_argument("--orientation", choices=("default", "printed"), default="default",
                          help="denominator orientation of the canonical form")

    parser = argparse.ArgumentParser(
        prog="qshuffle",
        description="Exact shuffle-algebra computations for quantum affine currents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", parents=[oriented], help="shuffle image of a word")
    p.add_argument("word", help="e.g. 'a1:0 a1:2 a2:-1'; empty for the unit")

    p = sub.add_parser("serre", parents=[oriented], help="check one quantum Serre alternator")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--modes", required=True, help="comma-separated integers")
    p.add_argument("--s", type=int, required=True)

    p = sub.add_parser("wheel", parents=[oriented], help="wheel vanishing for all color pairs")
    p.add_argument("word")

    p = sub.add_parser("identities", parents=[common], help="pole-sum identity checks")
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--window",
        default=None,
        help="exponent window lo:hi (write --window=-6:6 for a negative lo)",
    )

    p = sub.add_parser("selftest", parents=[oriented], help="seeded random verification suite")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        orientation = "printed" if vars(args).get("orientation") == "printed" else "product"
        alg = ShuffleAlgebra(load_cartan(args.cartan), orientation=orientation)
        if args.command == "product":
            report, code = cmd_product(alg, args.word)
        elif args.command == "serre":
            modes = [int(x) for x in args.modes.split(",")]  # an empty entry is an error
            report, code = cmd_serre(alg, args.alpha, args.beta, modes, args.s)
        elif args.command == "wheel":
            report, code = cmd_wheel(alg, args.word)
        elif args.command == "identities":
            window = parse_window(args.window) if args.window else None
            report, code = cmd_identities(args.m, window)
        else:
            report, code = cmd_selftest(alg, args.seed)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClosureViolation as exc:
        print(f"closure violation: {exc}", file=sys.stderr)
        return 3
    report = {
        "command": args.command,
        "version": __version__,
        "cartan": alg.cartan.to_json_dict(),
        **report,
    }
    if "orientation" in args:
        report["orientation"] = args.orientation
    try:
        emit(report, args.json)
    except OSError as exc:  # emit writes the file first: stdout is still empty
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
