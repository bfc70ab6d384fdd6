"""JSON matrix exchange format."""

from __future__ import annotations

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kunent import ProductOperator, qubits
from kunent.serialize import (
    load_density_matrix,
    load_factor,
    load_product_operator,
    matrix_from_dict,
    matrix_to_dict,
    product_operator_from_list,
    product_operator_to_list,
    save_density_matrix,
)

from conftest import random_mixed_state, random_product_operator


class TestMatrixSchema:
    def test_round_trip(self, rng):
        mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        obj = matrix_to_dict(mat, [2, 3])
        dims, back = matrix_from_dict(obj)
        assert dims == (2, 3)
        assert_allclose(back, mat)

    def test_row_major_layout(self):
        mat = np.array([[1, 2], [3, 4]], dtype=complex)
        obj = matrix_to_dict(mat, [2])
        assert obj["entries"] == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]

    def test_entry_count_validated(self):
        with pytest.raises(ValueError, match="entries"):
            matrix_from_dict({"dims": [2], "entries": [[1.0, 0.0]] * 3})

    def test_rejects_nonfinite(self):
        entries = [[1.0, 0.0]] * 4
        entries[2] = [float("nan"), 0.0]
        with pytest.raises(ValueError, match="finite"):
            matrix_from_dict({"dims": [2], "entries": entries})

    def test_rejects_malformed_entry(self):
        with pytest.raises(ValueError, match="pair"):
            matrix_from_dict({"dims": [2], "entries": [[1.0], [0, 0], [0, 0], [0, 0]]})

    @pytest.mark.parametrize(
        "dims", [[2.7, 2], [2.0, 2], ["2", "2"], [True, 2], "22", 4, None, {"2": 2}]
    )
    def test_dims_must_be_json_integers(self, dims):
        with pytest.raises(ValueError, match="dims"):
            matrix_from_dict({"dims": dims, "entries": [[0.25, 0.0]] * 16})

    def test_missing_fields(self):
        with pytest.raises(ValueError, match="dims"):
            matrix_from_dict({"entries": []})

    @pytest.mark.parametrize("entries", [5, None, "abcd", {"0": [1, 0]}, 2.5])
    def test_rejects_non_array_entries(self, entries):
        with pytest.raises(ValueError, match="'entries' must be an array"):
            matrix_from_dict({"dims": [2], "entries": entries})

    @pytest.mark.parametrize(
        "pair", [[None, 0], [0, None], ["1.5", 0], [True, 0], [0, False], [[1], 0], [{}, 0]]
    )
    def test_rejects_entry_that_is_not_two_numbers(self, pair):
        entries = [[1.0, 0.0], [0, 0], [0, 0], [1, 0]]
        entries[2] = pair
        with pytest.raises(ValueError, match="entry 2 must hold two numbers"):
            matrix_from_dict({"dims": [2], "entries": entries})

    def test_rejects_integer_beyond_float_range(self):
        entries = [[1, 0], [0, 0], [0, 10**400], [1, 0]]
        with pytest.raises(ValueError, match="entry 2"):
            matrix_from_dict({"dims": [2], "entries": entries})

    def test_accepts_ints_and_numpy_reals(self):
        entries = [[1, 0], [np.float64(0.5), np.int64(-2)], [0.0, 0], [np.float32(2.0), 1]]
        _, mat = matrix_from_dict({"dims": [2], "entries": entries})
        assert mat.tolist() == [[1, 0.5 - 2j], [0, 2 + 1j]]


class TestDensityMatrixIO:
    def test_round_trip_via_file(self, rng, tmp_path):
        rho = random_mixed_state(qubits(2), rng)
        path = tmp_path / "rho.json"
        save_density_matrix(rho, path)
        back = load_density_matrix(path)
        assert_allclose(back.mat, rho.mat)
        assert back.dims.dims == (2, 2)

    def test_validation_applies_on_load(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dims": [2, 2], "entries": [[1.0, 0.0]] * 16}))
        with pytest.raises(ValueError, match="trace|Hermitian"):
            load_density_matrix(path)


class TestProductOperatorIO:
    def test_round_trip(self, rng, tmp_path):
        op = random_product_operator(qubits(3), rng)
        objs = product_operator_to_list(op)
        back = product_operator_from_list(objs)
        for f1, f2 in zip(back.factors, op.factors):
            assert_allclose(f1, f2)

        path = tmp_path / "op.json"
        path.write_text(json.dumps(objs))
        loaded = load_product_operator(path)
        assert isinstance(loaded, ProductOperator)
        assert loaded.dims.dims == (2, 2, 2)

    def test_factor_must_be_single_site(self):
        obj = matrix_to_dict(np.eye(4, dtype=complex), [2, 2])
        with pytest.raises(ValueError, match="single-site"):
            product_operator_from_list([obj])

    def test_load_factor_must_be_single_site(self, tmp_path):
        path = tmp_path / "two_site.json"
        path.write_text(json.dumps(matrix_to_dict(np.eye(4, dtype=complex), [2, 2])))
        with pytest.raises(ValueError, match="single-site"):
            load_factor(path)
        path.write_text(json.dumps(matrix_to_dict(np.eye(2, dtype=complex), [2])))
        assert_allclose(load_factor(path), np.eye(2))

    def test_file_must_hold_array(self, tmp_path):
        path = tmp_path / "notalist.json"
        path.write_text(json.dumps({"dims": [2], "entries": [[1, 0]] * 4}))
        with pytest.raises(ValueError, match="array"):
            load_product_operator(path)
