"""Reproduction commands print exactly the recorded output in tests/golden/."""

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
    "table1.csv": ["table1"],
    "table1_n10.csv": ["table1", "--n", "10"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_bytes(name, capsys):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()
