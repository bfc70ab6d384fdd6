"""Command-line interface: specs, outputs, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from kunent import (
    Theorem1Evaluator,
    Theorem2Evaluator,
    Theorem2K1Evaluator,
    example2_closed_form,
    ghz_noise_closed_form,
    ghz_noise_family,
    ghz_probe,
    w_noise_family,
    w_probe,
)
from kunent import cli
from kunent.cli import main, parse_state_spec
from kunent.config import dim_cap
from kunent.serialize import matrix_to_dict, save_density_matrix

from conftest import random_mixed_state


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStateSpecs:
    def test_ghz_family(self):
        label, rho = parse_state_spec("ghz:3:p=0.5")
        assert rho.dims.dims == (2, 2, 2)
        assert rho.dense().mat[0, 7] == pytest.approx(0.25)

    def test_pure_ghz_default(self):
        _, rho = parse_state_spec("ghz:3")
        assert rho.dense().mat[0, 0] == pytest.approx(0.5)

    def test_w_family(self):
        _, rho = parse_state_spec("w:3:3:p=0.3,q=0.2")
        assert np.trace(rho.dense().mat) == pytest.approx(1.0)

    def test_wtilde_pure(self):
        _, rho = parse_state_spec("wtilde:3:2")
        assert rho.dense().mat[3, 3] == pytest.approx(1 / 3)

    def test_maximally_mixed(self):
        _, rho = parse_state_spec("mixed:I/256")
        assert rho.dims.n == 8
        assert rho.dense().mat[0, 0] == pytest.approx(1 / 256)

    def test_file_path(self, rng, tmp_path):
        rho = random_mixed_state(__import__("kunent").qubits(2), rng)
        path = tmp_path / "state.json"
        save_density_matrix(rho, path)
        _, loaded = parse_state_spec(str(path))
        assert loaded.dims.dims == (2, 2)

    # the preset specs of tests/golden/: family, its integer fields, weights
    GOLDEN_PRESETS = {
        "ghz:6:p=0.6": (ghz_noise_family, (6,), (0.6,)),
        "ghz:10:p=0.55": (ghz_noise_family, (10,), (0.55,)),
        "ghz:8:p=0.5": (ghz_noise_family, (8,), (0.5,)),
        "w:4:3:p=0.3,q=0.2": (w_noise_family, (4, 3), (0.3, 0.2)),
        "w:5:4:p=0.25,q=0.1": (w_noise_family, (5, 4), (0.25, 0.1)),
        "wtilde:4:3": (w_noise_family, (4, 3), (0.0, 1.0)),
    }

    @pytest.mark.parametrize("spec", GOLDEN_PRESETS)
    def test_golden_preset_is_its_family_point(self, spec):
        # the bundles of the parsed state and of the library's family point
        # are equal bit for bit, under both criteria
        family, ints, weights = self.GOLDEN_PRESETS[spec]
        _, rho = parse_state_spec(spec)
        point = family(*ints).evaluate(*weights)
        assert rho.weights.tobytes() == point.weights.tobytes()
        for ev in (Theorem1Evaluator(*ghz_probe(point.dims)),
                   Theorem2Evaluator(*w_probe(point.dims))):
            ours, theirs = ev.traces(rho), ev.traces(point)
            for name in type(ours)._mixed:
                assert np.asarray(getattr(ours, name)).tobytes() == \
                    np.asarray(getattr(theirs, name)).tobytes(), (spec, ev.theorem, name)

    def test_golden_presets_are_the_golden_specs(self):
        from test_golden import CASES

        specs = {argv[argv.index("--rho") + 1] for argv in CASES.values() if "--rho" in argv}
        presets = {s for s in specs if s.partition(":")[0] in ("ghz", "w", "wtilde")}
        assert presets == set(self.GOLDEN_PRESETS)

    def test_bad_spec_raises_input_error(self):
        from kunent.cli import InputError

        with pytest.raises(InputError):
            parse_state_spec("bogus:1:2")
        with pytest.raises(InputError):
            parse_state_spec("ghz:3:p=oops")
        for total in ("100", "0", "-4"):  # not a power of two
            with pytest.raises(InputError, match="D a power of 2"):
                parse_state_spec(f"mixed:I/{total}")


class TestEval:
    def test_ghz_above_threshold_detected(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--rho", "ghz:8:p=0.6", "--theorem", "1", "--k", "1",
            "--preset", "ghz-probe",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["any_detected"] is True
        assert payload["reports"][0]["detected"] is True
        assert payload["reports"][0]["theorem"] == "T1"

    def test_maximally_mixed_never_detected(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--rho", "mixed:I/256")
        assert code == 0
        payload = json.loads(out)
        assert payload["any_detected"] is False
        assert len(payload["reports"]) == 7  # k = 1..7

    def test_w_family_theorem2(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--rho", "w:5:4:p=0.5,q=0", "--theorem", "2", "--k", "4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"][0]["detected"] is True
        assert payload["reports"][0]["theorem"] == "T2"

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--rho", "ghz:4:p=0.9", "--k", "1", "--csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theorem,k,lhs,rhs,margin,detected"
        assert lines[1].startswith("T1,1,")

    def test_user_supplied_probes(self, capsys, tmp_path):
        ket0 = np.array([[1, 0], [0, 0]], dtype=complex)
        raise_op = np.array([[0, 0], [1, 0]], dtype=complex)
        x_path = tmp_path / "x.json"
        y_path = tmp_path / "y.json"
        x_path.write_text(json.dumps([matrix_to_dict(raise_op, [2])] * 4))
        y_path.write_text(json.dumps([matrix_to_dict(ket0, [2])] * 4))
        code, out, _ = run_cli(
            capsys, "eval", "--rho", "ghz:4:p=0.9", "--k", "1",
            "--x", str(x_path), "--y", str(y_path),
        )
        assert code == 0
        assert json.loads(out)["any_detected"] is True

    def test_per_tuple_variant(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--rho", "w:3:2:p=1", "--theorem", "2", "--per-tuple",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"][0]["theorem"] == "T2_k1"
        assert payload["reports"][0]["detected"] is True

    def test_input_errors_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "eval", "--rho", "nonsense:spec")
        assert code == 2
        assert "error" in err

        # dimension mismatch between probes and state
        ket0 = np.array([[1, 0], [0, 0]], dtype=complex)
        x_path = tmp_path / "x.json"
        x_path.write_text(json.dumps([matrix_to_dict(ket0, [2])] * 3))
        code, _, err = run_cli(
            capsys, "eval", "--rho", "ghz:4:p=0.5", "--k", "1",
            "--x", str(x_path), "--y", str(x_path),
        )
        assert code == 2
        assert "do not match" in err

    @pytest.mark.parametrize("spec", [
        "ghz:10000000000", "ghz:1000000000000000000000", "w:1000000000000000000000:2",
        "ghz:1000000", "ghz:5000",
    ])
    def test_oversized_site_count_exit_2(self, capsys, spec):
        # rejected before an N-tuple or the product of N dimensions is built
        start = perf_counter()
        code, out, err = run_cli(capsys, "eval", "--rho", spec)
        assert perf_counter() - start < 1.0
        assert code == 2 and out == ""
        n = spec.split(":")[1]
        assert f"N={n} sites exceed the dense-matrix cap {dim_cap()}" in err

    @pytest.mark.parametrize("broken", ["rho", "rho_entry", "x_entry", "omega"])
    def test_malformed_json_inputs_exit_2(self, capsys, tmp_path, broken):
        rho = matrix_to_dict(np.eye(4) / 4, [2, 2])
        factor = matrix_to_dict(np.eye(2), [2])
        x = [dict(factor), dict(factor)]
        omega = dict(factor)
        if broken == "rho":
            rho["entries"] = 5
        elif broken == "rho_entry":
            rho["entries"][3] = [None, 0]
        elif broken == "x_entry":
            x[1] = {"dims": [2], "entries": [[1, 0], [None, 0], [0, 0], [1, 0]]}
        else:
            omega["entries"] = 5
        paths = {}
        for name, obj in (("rho", rho), ("x", x), ("omega", omega)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(obj))
        code, out, err = run_cli(
            capsys, "eval", "--rho", str(paths["rho"]), "--theorem", "2",
            "--x", str(paths["x"]), "--omega", str(paths["omega"]),
        )
        assert code == 2
        assert out == ""
        assert "entr" in err

    @pytest.mark.parametrize("dims", [[2.7, 2], ["2", "2"]])
    def test_non_integer_dims_exit_2(self, capsys, tmp_path, dims):
        rho = matrix_to_dict(np.eye(4) / 4, [2, 2])
        rho["dims"] = dims
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(rho))
        code, out, err = run_cli(capsys, "eval", "--rho", str(path))
        assert code == 2
        assert out == ""
        assert "dims" in err

    def test_preset_specs_are_never_densified(self, capsys, monkeypatch):
        from kunent import DensityMatrix, PureState

        def refuse(self):
            raise AssertionError("a preset state was densified")

        monkeypatch.setattr(PureState, "to_density_matrix", refuse)
        monkeypatch.setattr(DensityMatrix, "__post_init__", refuse)
        for argv in (["--rho", "ghz:6:p=0.6"], ["--rho", "mixed:I/64"],
                     ["--rho", "w:4:3:p=0.3,q=0.2", "--theorem", "2"],
                     ["--rho", "wtilde:3:3", "--theorem", "2", "--per-tuple"]):
            code, _, _ = run_cli(capsys, "eval", *argv)
            assert code == 0

    @pytest.mark.parametrize(
        "spec", ["ghz:4:p=nan", "ghz:4:p=inf", "ghz:4:p=-0.1", "w:5:4:p=0.7,q=0.4"]
    )
    def test_invalid_mixture_weights_exit_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "eval", "--rho", spec)
        assert code == 2
        assert out == ""
        assert "mixture weight" in err

    def test_k_out_of_range_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--rho", "ghz:4:p=0.5", "--k", "9")
        assert code == 2 and out == ""
        assert "k must satisfy 1 <= k <= 3, got 9" in err

    @pytest.mark.parametrize("argv,message", [
        (["--preset", "ghz-probe", "--theorem", "2"], "preset ghz-probe drives theorem 1"),
        (["--preset", "w-probe"], "preset w-probe drives theorem 2"),
        (["--x", "x.json"], "theorem 1 needs both --x and --y"),
        (["--theorem", "2", "--x", "x.json"], "theorem 2 needs both --x and --omega"),
    ])
    def test_probe_flag_mismatch_exit_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "eval", "--rho", "ghz:4:p=0.5", *argv)
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("argv,count", [
        (["eval", "--rho", "ghz:-2"], -2), (["eval", "--rho", "w:-1:3"], -1),
        (["table1", "--n", "-3"], -3),
    ])
    def test_too_few_sites_named_exit_2(self, capsys, argv, count):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"need at least 2 sites, got {count}" in err

    def test_state_and_probe_dims_named_exit_2(self, capsys, tmp_path):
        x_path = tmp_path / "x.json"
        x_path.write_text(json.dumps([matrix_to_dict(np.eye(2), [2])] * 3))
        (tmp_path / "w.json").write_text(json.dumps(matrix_to_dict(np.eye(2), [2])))
        code, out, err = run_cli(
            capsys, "eval", "--rho", "ghz:4", "--theorem", "2", "--x", str(x_path),
            "--omega", str(tmp_path / "w.json"),
        )
        assert code == 2 and out == ""
        assert "state dims (2, 2, 2, 2) do not match probe dims (2, 2, 2)" in err

    def test_per_tuple_only_at_k_1_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--rho", "w:3:3", "--theorem", "2", "--per-tuple", "--k", "2",
        )
        assert code == 2 and out == ""
        assert "defined for k=1, got k=2" in err

    def test_preset_probe_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--rho", "ghz:4:p=0.5", "--preset", "ghz-probe",
            "--x", "whatever.json",
        )
        assert code == 2

    def test_unknown_spec_parameter_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--rho", "ghz:3:q=0.5")
        assert code == 2 and out == ""
        assert err == "error: unknown parameter 'q' (allowed: p)\n"

    def test_missing_probe_file_exit_2(self, capsys, tmp_path):
        missing = tmp_path / "x.json"
        code, out, err = run_cli(capsys, "eval", "--rho", "ghz:3", "--x", str(missing),
                                 "--y", str(missing))
        assert code == 2 and out == ""
        assert err.startswith("error: [Errno 2] No such file or directory: ")
        assert str(missing) in err

    @pytest.mark.parametrize("spec", ["ghz:4:p=0.5,p=0.9", "w:4:3:p=0.2,q=0.1,p=0.3"])
    def test_repeated_spec_parameter_exit_2(self, capsys, spec):
        # neither value may silently win
        code, out, err = run_cli(capsys, "eval", "--rho", spec, "--csv", "--k", "1")
        assert code == 2 and out == ""
        assert "parameter 'p' given twice" in err

    # the probe files each theorem reads, and a preset that drives it
    READS = {1: {"x", "y"}, 2: {"x", "omega"}}
    PRESET = {1: "ghz-probe", 2: "w-probe"}
    FILES = {"x": "x_d8.json", "y": "y_d8.json", "omega": "omega1.json,omega2.json"}

    @pytest.mark.parametrize("theorem,flags,preset,per_tuple", [
        pytest.param(theorem, flags, preset, per_tuple, id="-".join(
            [f"t{theorem}", *flags] + ["preset"] * preset + ["per-tuple"] * per_tuple))
        for theorem, preset, per_tuple in product((1, 2), (False, True), (False, True))
        for size in range(4) for flags in combinations(("x", "y", "omega"), size)
    ])
    def test_probe_flags_are_read_or_refused(self, capsys, theorem, flags, preset, per_tuple):
        # a probe flag the theorem does not read exits 2; it is never dropped
        inputs = Path(__file__).parent / "golden" / "inputs"
        argv = ["eval", "--rho", str(inputs / "rho_d8.json"), "--theorem", str(theorem), "--csv"]
        for flag in flags:
            files = ",".join(str(inputs / name) for name in self.FILES[flag].split(","))
            argv += [f"--{flag}", files]
        argv += ["--preset", self.PRESET[theorem]] if preset else []
        argv += ["--per-tuple"] if per_tuple else []
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2 and out == "" or set(flags) <= self.READS[theorem]
        valid = (set(flags) in (set(), self.READS[theorem]) and not (preset and flags)
                 and not (per_tuple and theorem == 1))
        assert code == (0 if valid else 2), argv

    @pytest.mark.parametrize("theorem,flag", [(1, "omega"), (2, "y")])
    def test_foreign_probe_flag_from_config_exit_2(self, capsys, tmp_path, theorem, flag):
        inputs = Path(__file__).parent / "golden" / "inputs"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag: str(inputs / self.FILES[flag].split(",")[0])}))
        code, out, err = run_cli(capsys, "--config", str(cfg), "eval", "--rho", "ghz:3",
                                 "--theorem", str(theorem))
        assert code == 2 and out == ""
        assert f"theorem {theorem} does not read --{flag}" in err

    def test_per_tuple_requires_theorem_2(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--rho", "ghz:4:p=0.5", "--theorem", "1", "--per-tuple",
        )
        assert code == 2
        assert "per-tuple" in err


class TestTable1:
    def test_default_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,p_k,p_k_reference"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 7
        for row, k in zip(rows, range(1, 8)):
            assert int(row[0]) == k
            assert abs(float(row[1]) - ghz_noise_closed_form(8, k)) <= 1e-6
        assert rows[0][2] == "0.8015"

    def test_smaller_n(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--n", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert lines[1].split(",")[2] == "none"


class TestFig1:
    def test_small_grid_anchors(self, capsys):
        code, out, _ = run_cli(capsys, "fig1", "--n", "4", "--d", "3", "--grid", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,q,p_star,margin_residual"
        anchors = {
            int(line.split(",")[0]): line.split(",")[2]
            for line in lines[1:]
            if line.split(",")[1] == "0"
        }
        for k in (1, 2, 3):
            assert abs(float(anchors[k]) - example2_closed_form(4, k, 3)) <= 1e-6

    def test_wtilde_probe_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "fig1", "--n", "3", "--d", "3", "--grid", "2", "--probe", "wtilde",
        )
        assert code == 0
        assert out.startswith("k,p,q_star,margin_residual")

    @pytest.mark.parametrize("probe", ["w", "wtilde"])
    def test_builds_the_family_once(self, capsys, monkeypatch, probe):
        import kunent.cli
        import kunent.states
        import kunent.thresholds

        builds = []

        def counting(n, d):
            builds.append((n, d))
            return w_noise_family(n, d)

        for module in (kunent.states, kunent.thresholds, kunent.cli):
            monkeypatch.setattr(module, "w_noise_family", counting)
        code, _, _ = run_cli(capsys, "fig1", "--n", "4", "--d", "3", "--grid", "2",
                             "--probe", probe)
        assert code == 0 and builds == [(4, 3)]

    @pytest.mark.parametrize("argv", [["--n", "1"], ["--n", "0"], ["--n", "-3", "--grid", "0"]])
    def test_too_few_sites_exit_2(self, capsys, argv):
        # the family's own site-count rule, as `table1` and `eval` report it
        code, out, err = run_cli(capsys, "fig1", *argv)
        assert code == 2 and out == ""
        assert f"need at least 2 sites, got {argv[1]}" in err


class TestOracleCheckCommand:
    def test_passes_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--trials", "5", "--seed", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert "factorization" in payload and "proof_chain" in payload

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_no_trials_exit_2(self, capsys, trials):
        code, out, err = run_cli(capsys, "oracle-check", "--trials", trials)
        assert code == 2 and out == ""
        assert "trials must be >= 1" in err


class TestEvalWork:
    """An `eval` request evaluates its criterion once for every k it
    reports, and encodes each distinct term list once."""

    @staticmethod
    def count(monkeypatch):
        """{"evaluate": [k per call], "encode": [id of each list written],
        "terms": [id of each term encoded, per list], "reports": [reports
        written]}, counted as they happen."""
        calls = {"evaluate": [], "encode": [], "terms": [], "reports": []}
        for cls in (Theorem1Evaluator, Theorem2Evaluator, Theorem2K1Evaluator):
            def counted(self, traces, k, inverse=None, _original=cls.__dict__["_evaluate"]):
                calls["evaluate"].append(k)
                return _original(self, traces, k, inverse)

            monkeypatch.setattr(cls, "_evaluate", counted)
        terms_text, reports_json = cli._terms_text, cli._reports_json

        def counted_text(terms, labels):
            calls["encode"].append(id(terms))
            calls["terms"] += map(id, terms)
            return terms_text(terms, labels)

        def counted_json(label, reports):
            calls["reports"] += reports
            return reports_json(label, reports)

        monkeypatch.setattr(cli, "_terms_text", counted_text)
        monkeypatch.setattr(cli, "_reports_json", counted_json)
        return calls

    @pytest.mark.parametrize("argv,reports,encodes", [
        # T1: the reports at k = 1..5 share one term list
        (["--rho", "ghz:6:p=0.6"], 5, 1),
        (["--rho", "ghz:6:p=0.6", "--k", "3"], 1, 1),
        # T2: each k has its own site sum among the terms, so its own list
        (["--rho", "w:4:3:p=0.3,q=0.2", "--theorem", "2"], 3, 3),
        (["--rho", "ghz:4", "--theorem", "2", "--per-tuple"], 1, 1),
        (["--rho", "mixed:I/64", "--csv"], 5, 0),
    ])
    def test_one_evaluation_and_one_encode_per_distinct_list(self, monkeypatch, capsys,
                                                             argv, reports, encodes):
        calls = self.count(monkeypatch)
        code, out, _ = run_cli(capsys, "eval", *argv)
        assert code == 0
        assert len(calls["evaluate"]) == 1
        assert np.size(calls["evaluate"][0]) == reports
        assert len(calls["encode"]) == len(set(calls["encode"])) == encodes
        # every distinct list's terms once, and nothing else
        lists = {id(r.terms): r.terms for r in calls["reports"]}
        assert calls["terms"] == [id(term) for terms in lists.values() for term in terms]
        if "--csv" not in argv:
            assert len(json.loads(out)["reports"]) == reports
        if argv[1].startswith("w:"):  # 3 lists of 108 terms
            assert len(calls["terms"]) == 3 * 108

class TestDeterminism:
    def test_identical_invocations_byte_identical(self, capsys):
        argv = ["eval", "--rho", "w:4:3:p=0.2,q=0.1", "--theorem", "2", "--k", "2"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_oracle_check_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "oracle-check", "--trials", "3", "--seed", "7")
        _, out2, _ = run_cli(capsys, "oracle-check", "--trials", "3", "--seed", "7")
        assert out1 == out2


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4}))
        code, out, _ = run_cli(capsys, "--config", str(cfg), "table1")
        assert code == 0
        assert len(out.strip().split("\n")) == 4  # header + k=1..3

    def test_unreadable_config_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "--config", str(tmp_path / "none.json"), "table1")
        assert code == 2 and out == ""
        assert "cannot read config" in err

    @pytest.mark.parametrize("config,argv", [
        ({"k": 1.5}, ["eval", "--rho", "ghz:3", "--csv"]),
        ({"theorem": 3}, ["eval", "--rho", "ghz:3", "--csv"]),
        ({"n": 2.5}, ["table1"]),
        ({"csv": 1}, ["eval", "--rho", "ghz:3"]),
        ({"per_tuple": "no"}, ["eval", "--rho", "ghz:3", "--theorem", "2"]),
    ])
    def test_config_values_checked_as_flags(self, capsys, tmp_path, config, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (key,) = config
        assert f"argument --{key.replace('_', '-')}" in captured.err

    def test_config_switches_and_values(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theorem": 2, "per_tuple": True, "csv": False, "k": 1}))
        flags = ["eval", "--rho", "w:3:2:p=1", "--theorem", "2", "--per-tuple", "--k", "1"]
        assert run_cli(capsys, "--config", str(cfg), "eval", "--rho", "w:3:2:p=1") == (
            run_cli(capsys, *flags)
        )
        # the --config=PATH form, and a command-line switch the config leaves off
        code, out, _ = run_cli(capsys, f"--config={cfg}", "eval", "--rho", "w:3:2:p=1", "--csv")
        assert code == 0 and out.startswith("theorem,k,")

    def test_config_supplies_rho(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": "ghz:4:p=0.9", "k": 2}))
        flags = ["eval", "--rho", "ghz:4:p=0.9", "--k", "2", "--csv"]
        assert run_cli(capsys, "--config", str(cfg), "eval", "--csv") == run_cli(capsys, *flags)

    @pytest.mark.parametrize("config", [None, {"k": 1}])
    def test_missing_rho_exit_2(self, capsys, tmp_path, config):
        argv = ["eval", "--k", "1"]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = ["--config", str(cfg), *argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "eval needs --rho" in err

    def test_bad_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1,2,3]")
        code, _, err = run_cli(capsys, "--config", str(cfg), "table1")
        assert code == 2

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "grid": 10}))
        code, out, err = run_cli(capsys, "--config", str(cfg), "table1")
        assert code == 2
        assert out == ""
        assert "unknown keys grid" in err

    def test_config_values_yield_to_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4}))
        code, out, _ = run_cli(capsys, "--config", str(cfg), "table1", "--n", "3")
        assert code == 0
        assert len(out.strip().split("\n")) == 3  # header + k=1..2

    def test_calls_in_a_row_match_separate_processes(self, capsys, tmp_path):
        # the parser is built once per process; no parse may change the next
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4}))
        calls = [["eval", "--rho", "ghz:3:p=0.9", "--k", "1", "--csv"],
                 ["eval", "--rho", "w:3:3:p=0.5,q=0.1", "--theorem", "2", "--preset", "w-probe"],
                 ["--config", str(cfg), "table1"],
                 ["table1"],
                 ["--config", str(cfg), "table1", "--n", "5"],
                 ["eval", "--rho", "ghz:3:p=0.9"]]
        src = str(Path(__import__("kunent").__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        for argv in calls:
            code, out, err = run_cli(capsys, *argv)
            alone = subprocess.run([sys.executable, "-m", "kunent.cli", *argv], env=env,
                                   capture_output=True, text=True, check=False)
            assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr)

    def test_config_uses_only_public_argparse_api(self):
        import inspect

        from kunent import cli

        source = inspect.getsource(cli)
        assert "._actions" not in source
        assert "_SubParsersAction" not in source

