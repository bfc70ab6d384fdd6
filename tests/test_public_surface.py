"""The public surface: every exported name resolves, every count a public
entry point takes follows one integer rule, and the README's library quick
start runs and prints what its comments say."""

from __future__ import annotations

import importlib
import json
import re
import types
from pathlib import Path

import numpy as np
import pytest

import kunent
from kunent import (
    SiteDims,
    Theorem2Evaluator,
    bisection_threshold,
    example2_closed_form,
    ghz,
    ghz_noise_closed_form,
    ghz_noise_family,
    ghz_threshold_table,
    oracle_check,
    pq_boundary_scan,
    qubits,
    qudits,
    random_k_unentangled,
    shift_sigma,
    verify_proof_chain,
    w_noise_family,
    w_probe,
    w_state,
    w_tilde,
)
from kunent import config
from kunent.cli import main
from kunent.oracle import factorization_check
from kunent.states import random_k_unentangled_terms, random_mixed_state

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


def _bisect_axis(axis):
    family = w_noise_family(3, 2)
    return bisection_threshold(family, Theorem2Evaluator(*w_probe(family.dims)), 1,
                               fixed=(0.1,), axis=axis)


def _rng():
    return np.random.default_rng(0)


#: (entry point and parameter, call with the count, name in the error,
#: a value below the range, its error).  Every call fails before any work.
COUNTS = [
    ("qudits.n", lambda v: qudits(v, 2), "n", 1, "n must be >= 2, got 1"),
    ("qubits.n", qubits, "n", 1, "n must be >= 2, got 1"),
    ("ghz.n", ghz, "n", 1, "n must be >= 2, got 1"),
    ("w_state.n", lambda v: w_state(v, 2), "n", 1, "n must be >= 2, got 1"),
    ("w_tilde.n", lambda v: w_tilde(v, 2), "n", 1, "n must be >= 2, got 1"),
    ("ghz_noise_family.n", ghz_noise_family, "n", 1, "n must be >= 2, got 1"),
    ("w_noise_family.n", lambda v: w_noise_family(v, 2), "n", 1, "n must be >= 2, got 1"),
    ("ghz_threshold_table.n", ghz_threshold_table, "n", 1, "n must be >= 2, got 1"),
    ("SiteDims.dims", lambda v: SiteDims((2, v)), "d_2", 1, "d_2 must be >= 2, got 1"),
    ("shift_sigma.d", shift_sigma, "d", 1, "d must be >= 2, got 1"),
    ("random_k_unentangled.terms", lambda v: random_k_unentangled(qubits(3), 1, v, 0),
     "terms", 0, "terms must be >= 1, got 0"),
    ("random_k_unentangled_terms.terms",
     lambda v: random_k_unentangled_terms(qubits(3), 1, v, _rng()), "terms", 0,
     "terms must be >= 1, got 0"),
    ("random_mixed_state.rank", lambda v: random_mixed_state(qubits(2), _rng(), rank=v),
     "rank", 0, "rank must be >= 1, got 0"),
    ("ghz_noise_closed_form.n", lambda v: ghz_noise_closed_form(v, 1), "n", 1,
     "n must be >= 2, got 1"),
    ("example2_closed_form.n", lambda v: example2_closed_form(v, 1, 3), "n", 1,
     "n must be >= 2, got 1"),
    ("example2_closed_form.d", lambda v: example2_closed_form(3, 1, v), "d", 1,
     "d must be >= 2, got 1"),
    ("pq_boundary_scan.n", lambda v: pq_boundary_scan(v, 2, 1, 4), "n", 1,
     "n must be >= 2, got 1"),
    ("pq_boundary_scan.grid", lambda v: pq_boundary_scan(3, 2, 1, v), "grid", 0,
     "grid must be >= 1, got 0"),
    ("bisection_threshold.axis", _bisect_axis, "axis", -1,
     "axis must satisfy 0 <= axis <= 1, got -1"),
    ("factorization_check.trials", factorization_check, "trials", 0, "trials must be >= 1, got 0"),
    ("verify_proof_chain.n_trials", verify_proof_chain, "trials", 0, "trials must be >= 1, got 0"),
    ("oracle_check.trials", oracle_check, "trials", 0, "trials must be >= 1, got 0"),
]


@pytest.mark.parametrize("value", [2.5, np.float64(3.0), True, "below"])
@pytest.mark.parametrize("call,name,below,message", [c[1:] for c in COUNTS],
                         ids=[c[0] for c in COUNTS])
def test_every_count_is_an_integer_in_range(call, name, below, message, value):
    # a float once met a TypeError from Python or numpy, True ran as 1, and
    # rank 0 failed as "density matrix contains non-finite entries"
    if value == "below":
        value = below
    else:
        message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


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
