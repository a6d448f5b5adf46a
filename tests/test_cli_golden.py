"""The README's CLI examples against committed golden reports.

Each ``tests/golden/<name>.json`` is the stdout of ``PYTHONPATH=src python
-m qshuffle.cli <args>`` for one example below.  A run must reproduce it
byte for byte once the wall-clock ``elapsed_ms`` values are blanked out,
and exit with the same code.  The printed-orientation square exits 3
with nothing on stdout; its stderr line is pinned instead.  Regenerate a
golden file only for an intended change of behaviour.
"""

import re
from pathlib import Path

import pytest

from qshuffle.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

EXAMPLES = {
    "product_a1": (["product", "--cartan", "A1", "a1:0 a1:0"], 0),
    "product_a2_printed": (["product", "--cartan", "A2", "--orientation", "printed", "a1:0 a2:0"], 0),
    "serre_b2": (["serre", "--cartan", "B2", "--alpha", "2", "--beta", "1", "--modes", "0,1,0", "--s", "1"], 0),
    "wheel_a2": (["wheel", "--cartan", "A2", "a1:0 a1:0 a2:0"], 0),
    "identities_m2": (["identities", "--m", "2"], 0),
    "identities_m1_window": (["identities", "--m", "1", "--window=-6:6"], 0),
    "selftest_b2": (["selftest", "--cartan", "B2", "--seed", "7"], 0),
}

ELAPSED = re.compile(r'"elapsed_ms": [-+.0-9e]+')


def blank_elapsed(text: str) -> str:
    return ELAPSED.sub('"elapsed_ms": _', text)


@pytest.mark.parametrize("name", EXAMPLES)
def test_report_matches_golden(name, capsys):
    argv, code = EXAMPLES[name]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert blank_elapsed(out) == blank_elapsed((GOLDEN / f"{name}.json").read_text())


def test_printed_square_exits_three_as_recorded(capsys):
    assert main(["product", "--orientation", "printed", "a1:0 a1:0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (GOLDEN / "product_printed_closure.stderr").read_text()


def test_blanking_touches_only_elapsed_ms():
    text = '{"elapsed_ms": 12.5, "m": 2, "x": "elapsed_ms"}'
    assert blank_elapsed(text) == '{"elapsed_ms": _, "m": 2, "x": "elapsed_ms"}'
    assert blank_elapsed(text) != blank_elapsed(text.replace('"m": 2', '"m": 3'))
