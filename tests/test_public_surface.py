"""The public surface: every exported name resolves, and the README's
library quick start runs and prints what its comments say."""

from __future__ import annotations

import importlib
import json
import types
from pathlib import Path

import pytest

import kunent
from kunent import config
from kunent.cli import main

MODULES = ["tensor", "states", "criteria", "oracle", "thresholds", "serialize"]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"kunent.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_names_are_module_exports():
    # each name kunent re-exports is in its module's __all__ (config has none)
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"kunent.{name}")
        exported.update({attr: getattr(module, attr) for attr in module.__all__})
    stray = []
    for attr in dir(kunent):
        value = getattr(kunent, attr)
        if attr.startswith("_") or isinstance(value, types.ModuleType):
            continue
        if exported.get(attr) is not value and vars(config).get(attr) is not value:
            stray.append(attr)
    assert not stray, stray


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs_as_documented():
    code = quick_start()
    # the values the block's comments state
    assert "# True" in code and "# 0.203125" in code and "# 0.4980392" in code
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["report"].detected is True
    assert namespace["report"].margin == pytest.approx(0.203125, rel=1e-12)
    assert namespace["res"].p_star == pytest.approx(0.4980392, abs=5e-8)


def test_cli_eval_reports_the_quick_start_point(capsys):
    # `eval --rho ghz:8:p=0.6` and the quick start's criterion on its family
    # point give the same report at every k, field for field
    namespace: dict = {}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    assert main(["eval", "--rho", "ghz:8:p=0.6"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["k"] for r in reports] == list(range(1, 8))
    for r in reports:
        ours = namespace["criterion"].evaluate(namespace["rho"], r["k"])
        assert r == json.loads(json.dumps(ours.to_dict()))
