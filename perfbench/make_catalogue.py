"""Regenerate ``words_catalogue.json``, the inputs and references of the
``words`` workload.

    python3 perfbench/make_catalogue.py

For every stratum (Cartan type, word length) it draws distinct words with
uniform colours and modes in [-2, 2], from a fixed generator seed.  Each
word's reference digest is the SHA-256 of the CLI rendering of its image on
an oracle-enabled algebra, so every multiplication step was recomputed by
direct rational summation; the default product path must give the same
element.  The words of a stratum are sorted by the measured cost of one
benchmark operation and paired with their neighbour, so the pairs are in
cost order and the two words of a pair cost about the same.

Single-colour words of length 5 are left out: A1 at length 5 costs 0.5 to
3.1 s per word on a 2-vCPU Xeon virtual machine, so one such word would
dominate a pass over the deck.
This takes about ten minutes on one core.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

sys.dont_write_bytecode = True

import workloads  # noqa: E402  (after the bytecode switch)

GENERATOR_SEED = 9809036
LENGTHS = {"A1": (3, 4)}
DEFAULT_LENGTHS = (3, 4, 5)
MAX_PER_COLOUR = 4
PAIRS_PER_STRATUM = 12
COST_REPEATS = 3


def pair_cost(block):
    return sum(e["cost_ms"] for e in block) / len(block)


def draw_words(rng, rank, length, count):
    seen = []
    while len(seen) < count:
        word = tuple((rng.randrange(1, rank + 1), rng.randrange(-2, 3)) for _ in range(length))
        colours = [c for c, _ in word]
        if max(colours.count(c) for c in set(colours)) > MAX_PER_COLOUR:
            continue
        if word not in seen:
            seen.append(word)
    return seen


def dumps(doc) -> str:
    """The catalogue as JSON text with one word entry per line."""
    strata = []
    for stratum in doc["strata"]:
        blocks = ",\n".join(
            "   [" + ",\n    ".join(json.dumps(e) for e in block) + "]" for block in stratum["blocks"]
        )
        head = json.dumps({k: v for k, v in stratum.items() if k != "blocks"})[:-1]
        strata.append(f'  {head}, "blocks": [\n{blocks}\n  ]}}')
    return '{"generator": ' + json.dumps(doc["generator"]) + ',\n "strata": [\n' + ",\n".join(strata) + "\n]}\n"


def main():
    lib = workloads.load_library()
    rng = random.Random(GENERATOR_SEED)
    strata = []
    for tag in workloads.WORD_TYPES:
        cartan = lib.cartan.builtin_cartan(tag)
        alg = lib.shuffle.ShuffleAlgebra(cartan)
        oracle = lib.shuffle.ShuffleAlgebra(cartan, oracle=True)
        for length in LENGTHS.get(tag, DEFAULT_LENGTHS):
            entries = []
            for word in draw_words(rng, cartan.rank, length, 2 * PAIRS_PER_STRATUM):
                ref = oracle.word_image(list(word))
                text = workloads.render(lib, ref)
                op = workloads.words_op(lib, alg, tag, list(word), workloads.digest(text))
                costs = []
                for _ in range(COST_REPEATS):
                    t0 = time.perf_counter()
                    out = op.run()
                    costs.append(time.perf_counter() - t0)
                    if not op.check(out):
                        raise SystemExit(f"{tag} {word}: product path disagrees with the oracle")
                entries.append(
                    {
                        "word": [list(x) for x in word],
                        "digest": workloads.digest(text),
                        "cost_ms": round(1000 * statistics.median(costs), 2),
                    }
                )
            entries.sort(key=lambda e: e["cost_ms"])
            blocks = [entries[i : i + 2] for i in range(0, len(entries), 2)]
            strata.append({"type": tag, "length": length, "blocks": blocks})
            total = sum(e["cost_ms"] for e in entries)
            print(f"{tag} L{length}: {len(entries)} words, {total:.0f} ms", file=sys.stderr, flush=True)
    doc = {
        "generator": {
            "seed": GENERATOR_SEED,
            "types": list(workloads.WORD_TYPES),
            "lengths": {tag: list(LENGTHS.get(tag, DEFAULT_LENGTHS)) for tag in workloads.WORD_TYPES},
            "modes": [-2, 2],
            "max_per_colour": MAX_PER_COLOUR,
            "pairs_per_stratum": PAIRS_PER_STRATUM,
            "cost": f"median of {COST_REPEATS} runs of the benchmark operation, ms",
        },
        "strata": strata,
    }
    with open(workloads.CATALOGUE, "w") as fh:
        fh.write(dumps(doc))


if __name__ == "__main__":
    main()
