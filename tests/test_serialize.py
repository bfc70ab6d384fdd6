"""JSON matrix exchange format."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kunent import DensityMatrix, ProductOperator, SiteDims, qubits, qudits
from kunent.serialize import (
    _flat_entries,
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

    def test_writer_checks_shape_against_dims(self):
        with pytest.raises(ValueError, match=r"^matrix shape \(3, 3\) does not match dims \[2, 2\]$"):
            matrix_to_dict(np.eye(3), [2, 2])

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


# ------------------------------------------------- flat route == json route

# a valid 2-qubit state, as the tokens of its [re, im] pairs
_STATE = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
_STATE[0, 1], _STATE[1, 0] = 0.05 + 0.02j, 0.05 - 0.02j
_PAIRS = [[repr(z.real), repr(z.imag)] for z in _STATE.ravel().tolist()]


def _text(pairs=_PAIRS, sep=", ", head='{"dims": [2, 2], "entries": [', tail="]}") -> str:
    return head + sep.join("[" + ", ".join(p) + "]" for p in pairs) + tail


def _with(at, *tokens) -> str:
    pairs = [list(p) for p in _PAIRS]
    pairs[at] = list(tokens)
    return _text(pairs)


def _outcome(load):
    """The dims and matrix bits of a load, or its error's type and message."""
    try:
        rho = load()
    except ValueError as exc:
        return type(exc), str(exc)
    return rho.dims.dims, rho.mat.tobytes()


def _json_route(path):
    """The load as json.load and matrix_from_dict alone make it."""
    with open(path, encoding="utf-8") as fh:
        dims, mat = matrix_from_dict(json.load(fh))
    return DensityMatrix(SiteDims(dims), mat)


VALID = {
    "dumps": json.dumps(matrix_to_dict(_STATE, [2, 2])),
    "indent": json.dumps(matrix_to_dict(_STATE, [2, 2]), indent=2),
    "compact": json.dumps(matrix_to_dict(_STATE, [2, 2]), separators=(",", ":")),
    "crlf": _text(sep=",\r\n\t", head=' \n{ "dims" :[ 2,2 ] ,\r"entries":\t[ ', tail=" ] }\n\n"),
    "int and -0.0": _with(15, "0.1", "-0.0").replace("[0.0, 0.0]", "[0, -0]"),
    "1E+05": _with(2, "1E+05", "-1e-05"),
    "2**53 + 1": _with(3, str(2**53 + 1), str(-(2**70) - 1)),
    "keys swapped": '{"entries": ' + _text(head="[", tail="]") + ', "dims": [2, 2]}',
    "extra key": _text(tail='], "note": "x"}'),
    "uneven separators": _text(sep=", ").replace("], [", "],[", 1),
}
MALFORMED = {
    "true": _with(5, "true", "0.0"),
    "null": _with(5, "0.0", "null"),
    "string": _with(5, '"1"', "0.0"),
    "three numbers": _with(5, "0.0", "0.0", "0.0"),
    "one number": _with(5, "0.0"),
    "+1": _with(5, "+1", "0.0"),
    "01": _with(5, "01", "0.0"),
    ".5": _with(5, ".5", "0.0"),
    "1.": _with(5, "1.", "0.0"),
    "NaN": _with(5, "NaN", "0.0"),
    "Infinity": _with(5, "0.0", "-Infinity"),
    "1e400": _with(5, "1e400", "0.0"),
    "10**400": _with(5, str(10**400), "0.0"),
    "trailing comma": _text(tail=",]}"),
    "truncated": _text()[:-9],
    "too few entries": _text(_PAIRS[:-1]),
    "too many entries": _text(_PAIRS + _PAIRS[:1]),
    # a number outside its pair, next to an empty slot: the flat array alone
    # would read four numbers from these
    "number after a pair": _with(5, "0.0", "").replace(", ], [", ", ]0.0, [", 1),
    "number before a pair": _with(6, "", "0.0").replace("], [, ", "], 0.0[, ", 1),
    "number before the first pair": _with(0, "", "0.0").replace("[[", "[0.4 [", 1),
    "number after the last pair": _with(15, "0.1", "").replace("]]}", "] 0.0]}"),
    "three numbers, then one": _with(5, "0.0", "0.0", "0.0").replace("[0.0, 0.0]", "[0.0]", 1),
    "dims not integers": _text(head='{"dims": [2.0, 2], "entries": ['),
    "dims of a bigger state": _text(head='{"dims": [4, 4], "entries": ['),
    "one site": _text(head='{"dims": [4], "entries": ['),
    "trailing text": _text(tail="]} x"),
}


@pytest.mark.parametrize("name", sorted(VALID) + sorted(MALFORMED))
def test_load_matches_json_route(tmp_path, name):
    text = {**VALID, **MALFORMED}[name]
    path = tmp_path / "rho.json"
    path.write_text(text, encoding="utf-8")
    outcome = _outcome(lambda: load_density_matrix(path))
    assert outcome == _outcome(lambda: _json_route(path))
    assert (outcome[0] == (2, 2)) == (name in VALID and name not in {"1E+05", "2**53 + 1"})


@pytest.mark.parametrize("name", ["dumps", "int and -0.0", "1E+05", "2**53 + 1"])
def test_save_layout_takes_the_flat_route(name):
    # decoded as one flat array, to the bits of the json route's matrix
    dims, mat = _flat_entries(VALID[name])
    want_dims, want = matrix_from_dict(json.loads(VALID[name]))
    assert dims == want_dims and mat.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(set(MALFORMED) - {"one site"})
                         + ["indent", "compact", "crlf", "keys swapped", "extra key",
                            "uneven separators"])
def test_other_texts_take_the_json_route(name):
    text = {**VALID, **MALFORMED}[name]
    try:
        assert _flat_entries(text) is None
    except (ValueError, OverflowError):
        pass  # load_density_matrix takes these to the json route too


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       data=st.data(), indent=st.sampled_from([None, 0, 1, "\t"]))
def test_flat_route_decodes_json_floats_bit_for_bit(dims, data, indent):
    d = int(np.prod(dims))
    pairs = data.draw(st.lists(st.tuples(finite, finite), min_size=d * d, max_size=d * d))
    text = json.dumps({"dims": dims, "entries": [list(p) for p in pairs]}, indent=indent)
    got, want = _flat_entries(text), matrix_from_dict(json.loads(text))
    if indent is None:  # the text save_density_matrix writes
        assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
    else:
        assert got is None


@settings(max_examples=30, deadline=None)
@given(dims=st.lists(st.integers(2, 3), min_size=2, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_save_load_round_trip_bit_for_bit(tmp_path_factory, dims, seed):
    rho = random_mixed_state(SiteDims(tuple(dims)), np.random.default_rng(seed))
    path = tmp_path_factory.mktemp("rt") / "rho.json"
    save_density_matrix(rho, path)
    back = load_density_matrix(path)
    assert back.dims == rho.dims and back.mat.tobytes() == rho.mat.tobytes()


def test_flat_route_peaks_no_higher_than_json_route(tmp_path):
    # D = 256: the text is about 3 MB, and the json route builds a list per entry
    rho = random_mixed_state(qudits(4, 4), np.random.default_rng(7))
    path = tmp_path / "rho.json"
    save_density_matrix(rho, path)

    def peak(load):
        tracemalloc.start()
        try:
            load()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert _flat_entries(path.read_text(encoding="utf-8")) is not None
    assert peak(lambda: load_density_matrix(path)) <= peak(lambda: _json_route(path))
