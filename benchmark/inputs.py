"""Benchmark inputs, built with numpy and json only (never through kunent).

A state is described by its components: a list of ``(weight, amplitudes)``
pairs plus a white-noise weight, so the reference evaluator can work from
amplitudes while the program under test receives a dense matrix, a preset
spec or a file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import prod, sqrt
from pathlib import Path

import numpy as np


@dataclass
class Mixture:
    """sum_j w_j |psi_j><psi_j| + noise * I/D over sites of dimension `dims`.

    `k` is the number of unentangled particles the state is known to
    contain (0 when nothing is known); no criterion may detect at or below it.
    """

    dims: tuple[int, ...]
    pure: list[tuple[float, np.ndarray]] = field(default_factory=list)
    noise: float = 0.0
    k: int = 0

    def dense(self) -> np.ndarray:
        d = prod(self.dims)
        mat = np.eye(d, dtype=complex) * (self.noise / d)
        for w, amp in self.pure:
            mat += w * np.outer(amp, amp.conj())
        return mat


# ---------------------------------------------------------------- presets


def ghz_amplitudes(n: int) -> np.ndarray:
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / sqrt(2.0)
    return amp


def w_amplitudes(n: int, d: int) -> np.ndarray:
    amp = np.zeros(d**n, dtype=complex)
    for site in range(n):
        for level in range(1, d):
            amp[level * d ** (n - 1 - site)] = 1.0 / sqrt(n * (d - 1))
    return amp


def w_tilde_amplitudes(n: int, d: int) -> np.ndarray:
    """W with every site's level raised by one (mod d)."""
    tensor = w_amplitudes(n, d).reshape((d,) * n)
    for axis in range(n):
        tensor = np.roll(tensor, 1, axis=axis)
    return tensor.reshape(-1)


def ketbra(d: int, row: int, col: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[row, col] = 1.0
    return m


def ghz_probe(n: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    return [ketbra(2, 1, 0)] * n, [ketbra(2, 0, 0)] * n


def w_probe(n: int, d: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    return [ketbra(d, 0, 0)] * n, [ketbra(d, s, 0) for s in range(1, d)]


def w_tilde_probe(n: int, d: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    return [ketbra(d, 1, 1)] * n, [ketbra(d, 0, 1)] + [ketbra(d, s, 1) for s in range(2, d)]


def preset_mixture(spec: str) -> Mixture:
    """Components of the CLI state specs `ghz:N:p=`, `w:N:d:p=,q=`, `mixed:I/D`."""
    head, _, rest = spec.partition(":")
    if head == "mixed":
        n = int(rest[2:]).bit_length() - 1
        return Mixture((2,) * n, noise=1.0, k=n)
    parts = rest.split(":")
    params = dict(item.split("=") for item in parts[-1].split(",")) if "=" in parts[-1] else {}
    params = {name: float(v) for name, v in params.items()}
    if head == "ghz":
        n = int(parts[0])
        p = params.get("p", 1.0)
        return Mixture((2,) * n, [(p, ghz_amplitudes(n))], 1.0 - p)
    if head == "w":
        n, d = int(parts[0]), int(parts[1])
        p, q = params.get("p", 1.0), params.get("q", 0.0)
        return Mixture(
            (d,) * n, [(p, w_amplitudes(n, d)), (q, w_tilde_amplitudes(n, d))], 1.0 - p - q
        )
    raise ValueError(f"no components for spec {spec!r}")


# ------------------------------------------------------------ random inputs


def random_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def random_factor(d: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian d x d matrix, unnormalised: the probe scale grows with d
    and N, as in the soundness tests of the program."""
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_unentangled(
    dims: tuple[int, ...], k: int, terms: int, noise: float, rng: np.random.Generator
) -> Mixture:
    """Mixture of `terms` pure states, each with k random single-site factors
    and one random state on the remaining sites, plus white noise."""
    n = len(dims)
    weights = rng.dirichlet(np.ones(terms)) * (1.0 - noise)
    pure = []
    for w in weights:
        singles = sorted(int(s) for s in rng.choice(n, size=k, replace=False))
        rest = [s for s in range(n) if s not in singles]
        tensor = random_ket(prod(dims[s] for s in rest), rng).reshape([dims[s] for s in rest])
        for s in singles:
            tensor = np.multiply.outer(tensor, random_ket(dims[s], rng))
        order = rest + singles
        tensor = np.transpose(tensor, np.argsort(order))
        pure.append((float(w), tensor.reshape(-1)))
    return Mixture(tuple(dims), pure, noise, k)


# ------------------------------------------------------------ JSON files


def _matrix_obj(mat: np.ndarray, dims) -> dict:
    flat = np.asarray(mat, dtype=complex).reshape(-1)
    return {
        "dims": [int(d) for d in dims],
        "entries": np.stack([flat.real, flat.imag], axis=1).tolist(),
    }


def write_matrix(path: Path, mat: np.ndarray, dims) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_matrix_obj(mat, dims)))


def write_product(path: Path, factors) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps([_matrix_obj(f, [f.shape[0]]) for f in factors]))
