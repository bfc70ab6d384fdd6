"""Constructors for the benchmark states and white-noise families.

Includes the n-qubit GHZ state, the qudit W state and its level-shifted
partner, convex white-noise mixtures, and the seeded random instances that
soundness tests and the oracle draw: states that contain at least k
unentangled particles, mixed states and product probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod, sqrt
from typing import Sequence

import numpy as np

from .config import WEIGHT_SUM_TOL
from .tensor import (
    DensityMatrix,
    ProductOperator,
    PureState,
    SiteDims,
    WhiteNoise,
    _check_count,
    qubits,
    qudits,
)

__all__ = [
    "NoiseFamily",
    "ghz",
    "w_state",
    "shift_sigma",
    "w_tilde",
    "Mixture",
    "component_weights",
    "mix",
    "random_k_unentangled",
    "random_k_unentangled_terms",
    "random_mixed_state",
    "random_product_operator",
    "ghz_noise_family",
    "w_noise_family",
]


def ghz(n: int) -> PureState:
    """(|0..0> + |1..1>)/sqrt(2) on n qubits."""
    dims = qubits(n)
    amp = np.zeros(dims.total_dim, dtype=complex)
    amp[0] = amp[-1] = 1.0 / sqrt(2.0)
    return PureState(dims, amp)


def w_state(n: int, d: int) -> PureState:
    """Equal superposition of the n(d-1) basis states with exactly one site
    excited to a level in 1..d-1 and all other sites in level 0."""
    dims = qudits(n, d)
    amp = np.zeros(dims.total_dim, dtype=complex)
    coeff = 1.0 / sqrt(n * (d - 1))
    for site in range(n):
        stride = d ** (n - 1 - site)
        for level in range(1, d):
            amp[level * stride] = coeff
    return PureState(dims, amp)


def shift_sigma(d: int) -> np.ndarray:
    """Cyclic level-shift matrix: |0> -> |1> -> ... -> |d-1> -> |0>."""
    _check_count("d", d, 2)
    sigma = np.zeros((d, d), dtype=complex)
    for level in range(d):
        sigma[(level + 1) % d, level] = 1.0
    return sigma


def w_tilde(n: int, d: int) -> PureState:
    """The W state with the cyclic shift `shift_sigma` applied to every
    site: level l of each site becomes level l + 1 (mod d)."""
    w = w_state(n, d)
    tensor = np.roll(w.amplitudes.reshape((d,) * n), 1, axis=tuple(range(n)))
    return PureState(w.dims, tensor.reshape(-1))


def component_weights(signal_weights) -> np.ndarray:
    """Weights of the signals followed by the white-noise weight 1 - sum.

    `signal_weights` has shape (..., n_signals): one mixture, or a batch of
    mixtures along the leading axes.  Every weight must be finite and
    nonnegative, and each mixture's signal weights must sum to at most 1
    (within `config.WEIGHT_SUM_TOL`).
    """
    w = np.asarray(signal_weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"non-finite mixture weight in {w.tolist()}")
    if np.any(w < 0):
        raise ValueError(f"negative mixture weight in {w.tolist()}")
    # summed left to right, from 0, like a Python sum over one mixture
    total = sum(w[..., c] for c in range(w.shape[-1]))
    if np.any(total > 1.0 + WEIGHT_SUM_TOL):
        raise ValueError(f"mixture weights sum to {np.max(total)} > 1")
    return np.concatenate([w, np.broadcast_to(1.0 - total, w.shape[:-1])[..., None]], axis=-1)


def _check_signal_dims(dims: SiteDims, signals: Sequence[PureState]) -> None:
    for psi in signals:
        if psi.dims.dims != dims.dims:
            raise ValueError(f"signal dims {psi.dims.dims} do not match family dims {dims.dims}")


@dataclass(frozen=True, eq=False)
class Mixture:
    """sum_i w_i |psi_i><psi_i| + (1 - sum w) I/D, held by its components.

    Every trace a criterion needs is linear in the state, so it is the same
    weighted sum of the traces of the pure signals and of white noise
    (`WhiteNoise`); no D x D matrix is needed unless `dense` is called.
    `weights` holds one weight per signal, then the white-noise weight.
    """

    dims: SiteDims
    signals: tuple[tuple[float, PureState], ...]
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        signals = tuple((float(w), psi) for w, psi in self.signals)
        weights = component_weights([w for w, _ in signals])
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        _check_signal_dims(self.dims, [psi for _, psi in signals])
        object.__setattr__(self, "signals", signals)

    @property
    def components(self) -> tuple[PureState | WhiteNoise, ...]:
        """The states the weights refer to, white noise last."""
        return (*(psi for _, psi in self.signals), WhiteNoise(self.dims))

    def dense(self) -> DensityMatrix:
        """The mixture as a D x D matrix."""
        return _dense_mixture(self.dims, self.weights, [psi.amplitudes for _, psi in self.signals])


def _dense_mixture(dims: SiteDims, weights: np.ndarray, amplitudes) -> DensityMatrix:
    """sum_i weights[i] |a_i><a_i| + weights[-1] I/D for normalized
    amplitudes a_i and `component_weights` output.  Positivity follows from
    convexity, so the PSD eigencheck is skipped; `DensityMatrix` still
    checks finiteness, Hermiticity and the trace."""
    total_dim = dims.total_dim
    mat = np.eye(total_dim, dtype=complex) * (weights[-1] / total_dim)
    for w, amp in zip(weights, amplitudes):
        if w > 0.0:
            mat += w * np.outer(amp, amp.conj())
    return DensityMatrix(dims, mat, _check_psd=False)


def mix(signals: Sequence[tuple[float, PureState]], dims: SiteDims) -> DensityMatrix:
    """Convex mixture sum_i w_i |psi_i><psi_i| + (1 - sum w) I/D as a dense
    matrix; see `Mixture` for the weight rules."""
    return Mixture(dims, tuple(signals)).dense()


@dataclass(frozen=True)
class NoiseFamily:
    """One- or two-parameter family mixing signal states with white noise."""

    dims: SiteDims
    signals: tuple[PureState, ...]
    param_names: tuple[str, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if len(self.signals) != len(self.param_names):
            raise ValueError("one parameter name per signal state required")
        _check_signal_dims(self.dims, self.signals)

    def evaluate(self, *weights: float) -> Mixture:
        """The point with one weight per signal, held by its components."""
        if len(weights) != len(self.signals):
            raise ValueError(
                f"family {self.description!r} takes {len(self.signals)} "
                f"parameters ({', '.join(self.param_names)}), got {len(weights)}"
            )
        return Mixture(self.dims, tuple(zip(weights, self.signals)))


def ghz_noise_family(n: int) -> NoiseFamily:
    """rho(p) = p |GHZ_n><GHZ_n| + (1-p) I/2^n."""
    return NoiseFamily(qubits(n), (ghz(n),), ("p",), f"ghz:{n}")


#: The weight names of `w_noise_family`, in signal order (W, then shifted W);
#: `boundary_scan_csv` names its columns from them without building a family.
W_PARAMS = ("p", "q")


def w_noise_family(n: int, d: int) -> NoiseFamily:
    """rho(p, q) = p |W><W| + q |W~><W~| + (1-p-q) I/d^n."""
    return NoiseFamily(qudits(n, d), (w_state(n, d), w_tilde(n, d)), W_PARAMS, f"w:{n}:{d}")


def _random_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Rotation-invariant random state: normalized complex Gaussian vector."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def _check_k(n: int, k) -> None:
    """k unentangled particles among n sites: an integer 1 <= k <= n - 1,
    or an integer array of them (the first bad one is named)."""
    if isinstance(k, np.ndarray) and k.dtype.kind in "iu":
        k = next(iter(k[(k < 1) | (k > n - 1)]), 1)
    _check_count("k", k, 1, n - 1)


def _random_blocks(n: int, k: int, rng: np.random.Generator) -> list[list[int]]:
    """0-based sites of k uniform singletons, in order, then of the other n-k."""
    _check_k(n, k)
    singles = sorted(int(s) for s in rng.choice(n, size=k, replace=False))
    return [[s] for s in singles] + [[s for s in range(n) if s not in singles]]


def _product_amplitudes(dims: Sequence[int], blocks, kets) -> np.ndarray:
    """Amplitudes of the product of one ket per block of sorted 0-based
    sites, laid out in site order."""
    full = kets[0]
    for ket in kets[1:]:
        # the product np.tensordot(full, ket, axes=0) makes; np.multiply.outer's bits differ
        full = np.dot(full.reshape(-1, 1), ket.reshape(1, -1))
    order = [s for b in blocks for s in b]
    return full.reshape([dims[s] for s in order]).transpose(np.argsort(order)).reshape(-1)


def random_k_unentangled_terms(
    dims: SiteDims, k: int, terms: int, rng: np.random.Generator
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Flat-simplex weights and the amplitudes of `terms` random pure states,
    each |a_1> x .. x |a_k> x |b> on an independently drawn partition
    (k uniform singletons + one (n-k)-site block), laid out in site order."""
    _check_count("terms", terms, 1)
    weights = rng.dirichlet(np.ones(terms)) if terms > 1 else np.array([1.0])
    amplitudes = []
    for _ in weights:
        blocks = _random_blocks(dims.n, k, rng)
        kets = [_random_ket(prod(dims.dims[s] for s in b), rng) for b in blocks]
        amplitudes.append(_product_amplitudes(dims.dims, blocks, kets))
    return weights, amplitudes


def random_k_unentangled(
    dims: SiteDims, k: int, terms: int, seed: int
) -> DensityMatrix:
    """Seeded random state containing at least k unentangled particles: the
    mixture of `random_k_unentangled_terms` as a dense matrix."""
    weights, amplitudes = random_k_unentangled_terms(dims, k, terms, np.random.default_rng(seed))
    # the terms were normalised as they were drawn, so they skip PureState's checks
    return _dense_mixture(dims, component_weights(weights), amplitudes)


def random_product_operator(dims: SiteDims, rng: np.random.Generator) -> ProductOperator:
    """Product operator with complex Gaussian factors."""
    return ProductOperator(dims, tuple(
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dims.dims
    ))


def random_mixed_state(dims: SiteDims, rng: np.random.Generator, rank: int = 3) -> DensityMatrix:
    """m m^dag / Tr[m m^dag] for a complex Gaussian D x rank matrix m."""
    _check_count("rank", rank, 1)
    d = dims.total_dim
    m = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = m @ m.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(dims, mat)
