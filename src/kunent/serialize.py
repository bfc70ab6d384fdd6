"""JSON exchange format for matrices, states and operators.

A matrix over a composite space is stored as::

    {"dims": [d_1, ..., d_N], "entries": [[re, im], ...]}

with ``entries`` the row-major entries of the (prod dims) x (prod dims)
matrix.  Single-site factors use ``dims = [d]``.  A product operator file
holds a JSON array of N such factor objects.

`load_density_matrix` decodes the text `save_density_matrix` writes
(`json.dumps` with its default separators, ``dims`` first) as one flat array
of numbers, without a Python list per entry or a loop over the entries.
Every other layout goes through `json` and `matrix_from_dict`, which also
word every error, and gets the same bits.  A loaded state is a
`DensityMatrix`, whose checks decide positivity (see there).
"""

from __future__ import annotations

import json
import re
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


# the opening of a state file as `save_density_matrix` writes it, up to the first pair's "["
_HEAD = re.compile(r'\{"dims": (\[\d+(?:, \d+)*\]), "entries": \[(?=\[)')
# deleting the characters of JSON numbers and spaces leaves brackets and commas
_SKELETON = str.maketrans("", "", "0123456789+-.eE ")
_UNBRACKET = str.maketrans("[]", "  ")
_CHUNK = 1 << 18  # characters of text per json.loads call: each copy stays small


def _flat_entries(text: str) -> tuple[tuple[int, ...], np.ndarray] | None:
    """The dims and matrix of a state file as `save_density_matrix` writes
    it, or None for any other text and whenever a check fails, so that
    `json` and `matrix_from_dict` decide (and word) it.

    The entries' brackets and commas must be "[" + "[,],"*(n - 1) + "[,]]"
    for n = prod(dims)^2, with "], [" between every two entries.  Then the
    inner brackets are turned into spaces and the text between the outer
    ones is decoded as one JSON array, a chunk at a time, so `json` still
    checks every number, and no full copy of the text is made.
    """
    head = _HEAD.match(text)
    if head is None or not text.endswith("]]}"):
        return None
    dims = json.loads(head[1])
    # start: the first pair's "[", close: the entries' "]"
    n, start, close = prod(dims) ** 2, head.end(), len(text) - 2
    if min(dims) < 1 or 6 * n - 1 > close - start:  # shorter than n entries can be
        return None
    if text.count("], [", start, close) != n - 1:
        return None
    expected, at = "[,]," * n, 0  # the skeleton, one comma after each entry
    flat, filled = np.empty(2 * n), 0
    while start <= close:
        cut = text.find(",", min(start + _CHUNK, close), close)
        cut = close if cut < 0 else cut
        piece = text[start:cut]
        skeleton = piece.translate(_SKELETON) + ","
        if not expected.startswith(skeleton, at):
            return None
        values = json.loads("[" + piece.translate(_UNBRACKET) + "]")
        flat[filled:filled + len(values)] = values
        at, filled, start = at + len(skeleton), filled + len(values), cut + 1
    if at != len(expected) or not np.isfinite(flat).all():
        return None
    d = prod(dims)
    return tuple(dims), flat.view(complex).reshape(d, d)


def load_density_matrix(path: str | Path) -> DensityMatrix:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        decoded = _flat_entries(text)
    except (ValueError, OverflowError):  # json's errors, and numbers past float range
        decoded = None
    dims, mat = decoded or matrix_from_dict(json.loads(text))
    del text  # several times the size of rho, so not kept through its checks
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
