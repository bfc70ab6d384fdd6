"""Tests of the benchmark itself: python3 -m pytest -q benchmark/test_benchmark.py"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import kunent  # noqa: E402
import kunent.cli  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_synthetic_tree():
    tree = [
        ["cli", 0.0, 10.0, -1, 0, None],
        ["criteria.t1_traces", 1.0, 4.0, 0, 0, None],
        ["tensor.sweep", 2.0, 3.0, 1, 0, None],
        ["criteria.report", 5.0, 9.0, 0, 0, None],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    metrics = spans.layer_metrics(tree)
    assert metrics["cli.self_s"] == 3.0
    assert metrics["criteria.t1_traces_s"] == 2.0
    assert metrics["criteria.t1_traces_calls"] == 1
    assert metrics["tensor.sweep_s"] == 1.0
    assert metrics["criteria.report_s"] == 4.0


def test_layer_metrics_notes_and_layer_entries():
    tree = [
        ["states.build", 0.0, 5.0, -1, 0, None],
        ["states.build", 1.0, 2.0, 0, 0, None],
        ["tensor.validate", 2.5, 3.0, 0, 0, {"mib": 1.0, "eig": True}],
        ["serialize.load", 6.0, 7.0, -1, 1, {"mib": 0.5}],
        ["tensor.validate", 6.5, 6.75, 3, 1, {"mib": 0.25, "eig": False}],
    ]
    metrics = spans.layer_metrics(tree)
    assert metrics["states.build_calls"] == 1  # the nested build is not a new entry
    assert metrics["states.build_s"] == pytest.approx(4.5)
    assert metrics["tensor.validate_calls"] == 2
    assert metrics["tensor.eig_checks"] == 1
    assert metrics["tensor.dense_mib"] == 1.25
    assert metrics["serialize.load_mib"] == 0.5
    assert metrics["serialize.load_s"] == pytest.approx(0.75)


def test_tracer_covers_imported_names_and_restores_them(tmp_path):
    original = kunent.cli.load_density_matrix
    dims = (2, 2)
    state = inputs.Mixture(dims, noise=1.0)
    path = tmp_path / "rho.json"
    inputs.write_matrix(path, state.dense(), dims)
    tracer = spans.Tracer()
    tracer.install(kunent)
    try:
        assert kunent.cli.load_density_matrix is not original
        tracer.enabled = True
        elapsed, rc, err, out = workloads._call_cli(kunent.cli, ["eval", "--rho", str(path), "--csv"])
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert kunent.cli.load_density_matrix is original
    assert rc == 0 and err is None
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli"
    load = names.index("serialize.load")
    assert tracer.spans[load][3] == 0
    assert "tensor.validate" in names and "criteria.t1_traces" in names
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_speed_scale_is_reference_over_the_run_median():
    probe = speed.SpeedProbe(0.04)
    probe.durations = [0.02, 0.08, 0.05]
    assert probe.factor() == pytest.approx(0.04 / 0.05)


def test_speed_probe_samples_once_per_interval_of_work(monkeypatch):
    monkeypatch.setattr(speed, "job", lambda: None)
    probe = speed.SpeedProbe(0.04)
    probe.between()
    assert len(probe.durations) == speed.MAX_SAMPLES
    probe.between()
    assert len(probe.durations) == speed.MAX_SAMPLES
    probe._last -= 2.2 * speed.INTERVAL_S
    probe.between()
    assert len(probe.durations) == speed.MAX_SAMPLES + 2


@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setattr(workloads.FamilyScan, "FIG1", dict(n=4, d=3, grid=6))
    monkeypatch.setattr(workloads.SoundnessSweep, "STATES_PER_K", 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_of_every_workload_checks_clean(name, small_sizes, tmp_path):
    workload = workloads.WORKLOADS[name](seed=3, passes=1, workdir=tmp_path / "in")
    workload.prepare()
    workload.warmup(kunent)
    tally = workloads.Tally()
    result = workload.run_pass(kunent, 0, tally)
    assert tally.attempted >= len(result.latencies_s) > 0
    assert tally.errors == []
    assert result.wall_s > 0 and result.evals > 0
    # only the tight probe of soundness_sweep may produce false certificates
    assert tally.failed == tally.false_certs
    if name != "soundness_sweep":
        assert tally.failed == 0


def test_a_wrong_value_is_a_failure_not_a_false_certificate():
    expected = {1: {"lhs": 1.0, "rhs": 2.0, "margin": -1.0, "scale": 2.0}}
    report = {"k": 1, "lhs": 1.0, "rhs": 2.0, "margin": -1.0, "detected": False}
    assert workloads.check_reports([report], expected, 1, "x") == ([], 0)
    wrong = dict(report, rhs=2.1)
    problems, false_certs = workloads.check_reports([wrong], expected, 1, "x")
    assert problems and false_certs == 0
    tight = {1: {"lhs": 1.0, "rhs": 1.0, "margin": 0.0, "scale": 1.0}}
    certified = dict(report, rhs=1.0, margin=2e-16, detected=True)
    assert workloads.check_reports([certified], tight, 1, "x") == ([], 1)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_emits_every_benchmark_metric_with_its_unit(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    done = _run(ROOT, "--workload", "soundness_sweep", "--seed", "5", "--seconds", "1",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] > 0
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "preset_eval", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert not (tmp_path / "benchmark" / "out").exists() or not os.listdir(
        tmp_path / "benchmark" / "out")
