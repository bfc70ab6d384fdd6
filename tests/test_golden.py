"""Reproduction commands print exactly the recorded output in tests/golden/.

Every command runs with tests/golden/ as the working directory, so the
input files under tests/golden/inputs/ are named by relative paths (`eval`
echoes the `--rho` path it was given)."""

from __future__ import annotations

from pathlib import Path

import pytest

from kunent.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "fig1_n5_d4_grid40_w.csv": ["fig1", "--n", "5", "--d", "4", "--grid", "40", "--probe", "w"],
    "fig1_n5_d4_grid40_wtilde.csv": [
        "fig1", "--n", "5", "--d", "4", "--grid", "40", "--probe", "wtilde",
    ],
    "fig1_n6_d3_grid50_w.csv": ["fig1", "--n", "6", "--d", "3", "--grid", "50"],
    "table1.csv": ["table1"],
    "table1_n9.csv": ["table1", "--n", "9"],
    "table1_n10.csv": ["table1", "--n", "10"],
    "eval_ghz6_p0.6_t1.json": ["eval", "--rho", "ghz:6:p=0.6", "--theorem", "1"],
    "eval_ghz10_p0.55_t1.csv": ["eval", "--rho", "ghz:10:p=0.55", "--theorem", "1", "--csv"],
    "eval_w4_3_p0.3_q0.2_t2_wprobe.json": [
        "eval", "--rho", "w:4:3:p=0.3,q=0.2", "--theorem", "2", "--preset", "w-probe",
    ],
    "eval_w5_4_p0.25_q0.1_t2_wtildeprobe.csv": [
        "eval", "--rho", "w:5:4:p=0.25,q=0.1", "--theorem", "2", "--preset", "wtilde-probe",
        "--csv",
    ],
    "eval_wtilde4_3_t2_wtildeprobe.json": [
        "eval", "--rho", "wtilde:4:3", "--theorem", "2", "--preset", "wtilde-probe",
    ],
    "eval_ghz8_p0.5_t2_pertuple.json": [
        "eval", "--rho", "ghz:8:p=0.5", "--theorem", "2", "--per-tuple",
    ],
    "eval_mixed64.json": ["eval", "--rho", "mixed:I/64"],
    "eval_file_d8_t1.json": [
        "eval", "--rho", "inputs/rho_d8.json", "--theorem", "1",
        "--x", "inputs/x_d8.json", "--y", "inputs/y_d8.json",
    ],
    "eval_file_d8_t2.json": [
        "eval", "--rho", "inputs/rho_d8.json", "--theorem", "2",
        "--x", "inputs/x_d8.json", "--omega", "inputs/omega1.json,inputs/omega2.json",
    ],
    "oracle_check_t5_s0.json": ["oracle-check", "--trials", "5", "--seed", "0"],
    "oracle_check_t50_s7.json": ["oracle-check", "--trials", "50", "--seed", "7"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_bytes(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()
