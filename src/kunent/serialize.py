"""JSON exchange format for matrices, states and operators.

A matrix over a composite space is stored as::

    {"dims": [d_1, ..., d_N], "entries": [[re, im], ...]}

with ``entries`` the row-major entries of the (prod dims) x (prod dims)
matrix.  Single-site factors use ``dims = [d]``.  A product operator file
holds a JSON array of N such factor objects.
"""

from __future__ import annotations

import json
from math import prod
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .tensor import DensityMatrix, ProductOperator, SiteDims

__all__ = [
    "matrix_to_dict",
    "matrix_from_dict",
    "load_density_matrix",
    "save_density_matrix",
    "product_operator_to_list",
    "product_operator_from_list",
    "load_product_operator",
    "load_factor",
]


def matrix_to_dict(mat: np.ndarray, dims: Sequence[int]) -> dict:
    mat = np.asarray(mat, dtype=complex)
    d = prod(int(x) for x in dims)
    if mat.shape != (d, d):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {list(dims)}")
    entries = [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]
    return {"dims": [int(x) for x in dims], "entries": entries}


def matrix_from_dict(obj: Mapping) -> tuple[tuple[int, ...], np.ndarray]:
    if not isinstance(obj, Mapping):
        raise ValueError("matrix object must be a JSON mapping")
    if "dims" not in obj or "entries" not in obj:
        raise ValueError("matrix object needs 'dims' and 'entries' fields")
    dims = obj["dims"]
    # JSON integers only: int() would truncate 2.7 and parse "2"; type() also rules out bool
    if not isinstance(dims, (list, tuple)) or any(type(x) is not int for x in dims):
        raise ValueError(f"'dims' must be an array of integers, got {dims!r}")
    dims = tuple(dims)
    if not dims or any(x < 1 for x in dims):
        raise ValueError(f"invalid dims {list(dims)}")
    d = prod(dims)
    entries = obj["entries"]
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"'entries' must be an array of [re, im] pairs, got {type(entries).__name__}")
    if len(entries) != d * d:
        raise ValueError(
            f"expected {d * d} entries for dims {list(dims)}, got {len(entries)}"
        )
    flat = np.empty(d * d, dtype=complex)
    for idx, pair in enumerate(entries):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"entry {idx} must be a [re, im] pair, got {pair!r}")
        re, im = pair
        # complex() refuses None, strings and arrays, but takes JSON true/false
        if re is True or re is False or im is True or im is False:
            raise ValueError(f"entry {idx} must hold two numbers, got {pair!r}")
        try:
            flat[idx] = complex(re, im)
        except (TypeError, OverflowError) as exc:
            raise ValueError(
                f"entry {idx} must hold two numbers in floating-point range, got {pair!r}"
            ) from exc
    if not np.all(np.isfinite(flat.view(float))):
        raise ValueError("matrix entries must be finite")
    return dims, flat.reshape(d, d)


def load_density_matrix(path: str | Path) -> DensityMatrix:
    with open(path, encoding="utf-8") as fh:
        dims, mat = matrix_from_dict(json.load(fh))
    return DensityMatrix(SiteDims(dims), mat)


def save_density_matrix(rho: DensityMatrix, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_dict(rho.mat, rho.dims.dims), fh)


def _factor_from_dict(obj: Mapping, what: str) -> np.ndarray:
    """The matrix of a single-site factor object; `what` names it in errors."""
    dims, mat = matrix_from_dict(obj)
    if len(dims) != 1:
        raise ValueError(f"{what} must be a single-site matrix (dims of length 1), got dims {list(dims)}")
    return mat


def product_operator_to_list(op: ProductOperator) -> list[dict]:
    return [
        matrix_to_dict(f, [d]) for f, d in zip(op.factors, op.dims.dims)
    ]


def product_operator_from_list(objs: Sequence[Mapping]) -> ProductOperator:
    factors = [_factor_from_dict(obj, f"factor {idx}") for idx, obj in enumerate(objs)]
    return ProductOperator(SiteDims(tuple(len(f) for f in factors)), tuple(factors))


def load_product_operator(path: str | Path) -> ProductOperator:
    with open(path, encoding="utf-8") as fh:
        objs = json.load(fh)
    if not isinstance(objs, list):
        raise ValueError(f"{path}: expected a JSON array of factor objects")
    return product_operator_from_list(objs)


def load_factor(path: str | Path) -> np.ndarray:
    """Load one single-site factor matrix."""
    with open(path, encoding="utf-8") as fh:
        return _factor_from_dict(json.load(fh), str(path))
