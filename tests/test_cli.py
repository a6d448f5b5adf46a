"""CLI behavior: reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qshuffle.cli import IDENTITIES_MAX_M, main


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


def test_parse_errors_exit_two(capsys):
    assert main(["product", "b1:0"]) == 2
    assert main(["product", "--cartan", "Z9", "a1:0"]) == 2
    assert main(["identities", "--m", "0"]) == 2
    assert main(["serre", "--alpha", "1", "--beta", "1", "--modes", "0,0", "--s", "0"]) == 2
    assert main(["identities", "--m", "1", "--window", "6"]) == 2


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
