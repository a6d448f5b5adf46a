"""CLI behavior: reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qshuffle import cli
from qshuffle.cli import IDENTITIES_MAX_M, IDENTITIES_MAX_WINDOW, main
from qshuffle.formal import Window
from qshuffle.identities import window_identity_report


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_product_unit(capsys):
    code, out = run_cli(capsys, "product", "--cartan", "A2", "")
    assert code == 0
    rep = json.loads(out)
    assert rep["degree"] == [0, 0]
    assert rep["numerator"] == ["(1) q^0 | 1"]
    assert rep["denominator"] == []
    assert rep["orientation"] == "default"
    assert rep["version"]


def test_product_same_color_square(capsys):
    code, out = run_cli(capsys, "product", "--cartan", "A1", "a1:0 a1:0")
    assert code == 0
    rep = json.loads(out)
    assert rep["degree"] == [2]
    assert rep["numerator"] == ["(1) q^0 | 1", "(1) q^2 | 1"]
    assert rep["denominator"] == [
        {"i": "z[1,1]", "j": "z[1,2]", "a": "1", "b": "q^2", "mult": 1}
    ]


def test_product_cross_color(capsys):
    code, out = run_cli(capsys, "product", "--cartan", "A2", "a1:0 a2:0")
    assert code == 0
    rep = json.loads(out)
    assert rep["degree"] == [1, 1]
    # the numerator carries the canonical factor; the rational form is 1
    assert rep["numerator"] == ["(-1) q^-1 | z[2,1]^1", "(1) q^0 | z[1,1]^1"]


def test_printed_orientation_closure_exit(capsys):
    code = main(["product", "--orientation", "printed", "a1:0 a1:0"])
    assert code == 3


def test_printed_serre_exits_three(capsys):
    # the alternator's products leave the printed orientation's closure
    argv = ["serre", "--orientation", "printed", "--cartan", "B2", "--alpha", "2", "--beta", "1"]
    assert main(argv + ["--modes", "0,1,0", "--s", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("closure violation: ")


def test_parse_errors_exit_two(capsys):
    assert main(["product", "b1:0"]) == 2
    assert main(["product", "--cartan", "Z9", "a1:0"]) == 2
    assert main(["identities", "--m", "0"]) == 2
    assert main(["serre", "--alpha", "1", "--beta", "1", "--modes", "0,0", "--s", "0"]) == 2
    assert main(["identities", "--m", "1", "--window", "6"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["product", "--window=1:2", "a1:0"],
        ["product", "--seed", "9", "a1:0"],
        ["wheel", "--window=1:2", "a1:0"],
        ["serre", "--seed", "1", "--alpha", "1", "--beta", "2", "--modes", "0,0", "--s", "0"],
        ["identities", "--m", "1", "--seed", "1"],
        ["selftest", "--window=1:2"],
        ["identities", "--m", "1", "--orientation", "printed"],
    ],
)
def test_options_outside_their_command_exit_two(capsys, argv):
    # --window belongs to identities, --seed to selftest only, and
    # --orientation to the commands that build shuffle products
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_serre_report(capsys):
    code, out = run_cli(
        capsys, "serre", "--cartan", "B2", "--alpha", "2", "--beta", "1",
        "--modes", "0,1,0", "--s", "1",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["is_zero"] is True
    assert rep["degree"] == [1, 3]


def test_wheel_report(capsys):
    code, out = run_cli(capsys, "wheel", "--cartan", "A2", "a1:0 a1:0 a2:0")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_ok"] is True
    flags = {(p["alpha"], p["beta"]): p["applicable"] for p in rep["pairs"]}
    assert flags == {(1, 2): True, (2, 1): False}


def test_identities_with_window(capsys):
    code, out = run_cli(capsys, "identities", "--m", "1", "--window=-6:6")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_zero"] is True
    assert rep["window_check"]["matched"] == ["qminus"]
    assert all(r["term_count"] == 6 for r in rep["results"])


def test_identities_window_matching_both_readings_fails(capsys, monkeypatch):
    # no monomial of total degree -2 lies in 0:6 or in -6:-1, so both
    # readings match and the window decides nothing: the library reports
    # both, and the CLI exits 2 before it computes anything
    for lo, hi in ((0, 6), (-6, -1)):
        assert window_identity_report(1, Window(lo, hi))["matched"] == ["qminus", "qplus"]
    for name in ("verify_rational_vanishing", "window_identity_report"):
        monkeypatch.setattr(cli, name, lambda *args, **kw: pytest.fail("work done on an undecidable window"))
    for window in ("--window=0:6", "--window=-6:-1"):
        code = main(["identities", "--m", "1", window])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: identities --window decides only when lo < 0 <= hi\n"


def test_identities_m4_experiment(capsys):
    # beyond the proved range m <= 2: reported like criterion 2 does for m = 3
    code, out = run_cli(capsys, "identities", "--m", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_zero"] is True
    assert [r["term_count"] for r in rep["results"]] == [720, 720]


def test_identities_m_limit(capsys):
    assert IDENTITIES_MAX_M == 5
    assert main(["identities", "--m", str(IDENTITIES_MAX_M + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--m up to 5" in captured.err


def test_identities_window_limit(capsys):
    # every m the CLI accepts has a window bound; past it, exit 2 before any work
    assert set(IDENTITIES_MAX_WINDOW) == set(range(1, IDENTITIES_MAX_M + 1))
    for m, width in IDENTITIES_MAX_WINDOW.items():
        assert main(["identities", "--m", str(m), f"--window=-{width}:1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--m {m} supports --window widths hi - lo up to {width}" in captured.err
    half = IDENTITIES_MAX_WINDOW[1] // 2
    code, out = run_cli(capsys, "identities", "--m", "1", f"--window=-{half}:{half}")
    assert code == 0
    assert json.loads(out)["window_check"]["matched"] == ["qminus"]


def test_custom_cartan_file(tmp_path, capsys):
    data = {"rank": 2, "matrix": [[2, -2], [-1, 2]], "symmetrizers": [1, 2]}
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "product", "--cartan", str(path), "a2:0 a2:0")
    assert code == 0
    rep = json.loads(out)
    assert rep["cartan"]["symmetrizers"] == [1, 2]
    assert rep["numerator"] == ["(1) q^0 | 1", "(1) q^4 | 1"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rank": 2, "matrix": [[2, 0], [-1, 2]], "symmetrizers": [1, 1]}))
    assert main(["product", "--cartan", str(bad), "a1:0"]) == 2
    bad.write_text(json.dumps({"rank": 1, "matrix": [[2]], "symmetrizers": [True]}))
    assert main(["product", "--cartan", str(bad), "a1:0"]) == 2


def test_report_written_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "product", "--cartan", "A2", "--json", str(out_path), "a1:1 a2:-1"
    )
    assert code == 0
    assert out_path.read_text() == out


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_json_path_is_a_usage_error(tmp_path, capsys, where):
    # the report file is written before stdout: a failure leaves stdout
    # empty and prints one error line
    path = tmp_path / "absent" / "out.json" if where == "missing directory" else tmp_path
    code = main(["product", "--cartan", "A1", "--json", str(path), "a1:0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err


def test_byte_identical_reports(capsys):
    runs = []
    for _ in range(2):
        code, out = run_cli(capsys, "product", "--cartan", "B2", "a1:0 a2:1 a1:-1")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_selftest_deterministic_modulo_timing(capsys):
    reports = []
    for _ in range(2):
        code, out = run_cli(capsys, "selftest", "--cartan", "A2", "--seed", "5")
        assert code == 0
        rep = json.loads(out)
        for c in rep["checks"]:
            c.pop("elapsed_ms")
        reports.append(rep)
    assert reports[0] == reports[1]
    assert reports[0]["all_ok"] is True
    assert {c["name"] for c in reports[0]["checks"]} >= {
        "closure", "oracle", "serre", "wheel", "identities",
    }


def test_module_entry_point():
    # the subprocess finds the package from a bare checkout too
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-m", "qshuffle.cli", "product", "--cartan", "A1", "a1:2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["numerator"] == ["(1) q^0 | z[1,1]^2"]
