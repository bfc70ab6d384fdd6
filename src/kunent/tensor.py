"""Complex linear algebra over composite Hilbert spaces.

Conventions
-----------
- Sites are numbered 1..N.  Site 1 is the *leftmost* (most significant)
  Kronecker factor: the basis index of |b_1 .. b_N> is
  sum_i b_i * prod_{j>i} d_j.
- A state is held in one of three complex128 representations: a dense
  `DensityMatrix` (D x D), a `PureState` (its D amplitudes) or
  `WhiteNoise` (I/D, held by its dimensions alone).  The total dimension
  D = prod(d_i) is rejected above a configurable cap (default 4096, env
  ``KUNENT_DIM_CAP``).
- All container types are immutable after construction; the wrapped numpy
  arrays are defensive copies marked read-only.

The trace kernels at the bottom (`sandwich_trace`, `cross_trace`,
`product_trace`, `subset_trace_sweep`, `pair_reduced`) evaluate every
expectation needed by the detection criteria on a *single* copy of the
state, for each of the three representations: the operator side is kept
in product form and contracted site by site, so neither a two-copy state
nor the assembled N-site operator is ever built, and a pure state or white
noise is never expanded to a D x D matrix.  Costs per representation:

- dense: O(D^2) time per trace, and per pair block of `pair_reduced`
  (which also copies rho once per pair); `subset_trace_sweep` makes 4N - 2
  einsum calls over stacks of partial blocks, with at most 3/8 of rho extra;
- pure: O(N D d) time and O(D) memory per trace; `subset_trace_sweep`
  meets in the middle with two 2^(N/2) x D amplitude stacks and one
  matrix product, O(2^N D) time and O(2^(N/2) D) memory;
- white noise: O(N d) per trace, an outer product of local traces,
  O(2^N), for `subset_trace_sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import prod
from typing import Sequence, Union

import numpy as np

from .config import HERMITICITY_TOL, NORM_TOL, PSD_TOL, TRACE_TOL, dim_cap

__all__ = [
    "SiteDims",
    "ProductOperator",
    "DensityMatrix",
    "PureState",
    "WhiteNoise",
    "qubits",
    "qudits",
    "assemble",
    "product_trace",
    "sandwich_trace",
    "cross_trace",
    "subset_trace_sweep",
    "pair_reduced",
]


def _frozen_complex(a: np.ndarray | Sequence, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Validated read-only complex copy of `a` with the required shape."""
    arr = np.array(a, dtype=complex, order="C")
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError(f"{what} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SiteDims:
    """Local dimensions d_1..d_N of an N-partite system."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(d, (int, np.integer)) for d in self.dims):
            raise ValueError(f"local dimensions must be integers, got {tuple(self.dims)}")
        dims = tuple(map(int, self.dims))
        object.__setattr__(self, "dims", dims)
        if any(d < 2 for d in dims):
            raise ValueError(f"every local dimension must be >= 2, got {dims}")
        _check_site_count(len(dims), dims)

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    def uniform(self) -> int:
        """The shared local dimension; raises if sites differ."""
        d = self.dims[0]
        if any(di != d for di in self.dims):
            raise ValueError(f"sites have unequal dimensions {self.dims}")
        return d


def _check_site_count(n: int, dims: tuple[int, ...] = ()) -> None:
    """Reject fewer than 2 sites, or n sites of dimensions `dims` whose
    product is over the dense-matrix cap.  Every dimension is >= 2, so n
    past cap.bit_length() is rejected before anything is multiplied."""
    cap = dim_cap()
    if n < 2:
        raise ValueError(f"need at least 2 sites, got {n}")
    if n > cap.bit_length() or prod(dims) > cap:
        raise ValueError(f"N={n} sites exceed the dense-matrix cap {cap} on the total dimension")


def qubits(n: int) -> SiteDims:
    """Shorthand for n qubit sites."""
    return qudits(n, 2)


def qudits(n: int, d: int) -> SiteDims:
    """Shorthand for n sites of dimension d; an n below 2 or past the cap is
    rejected before the n-tuple is built."""
    _check_site_count(n)
    return SiteDims((d,) * n)


@dataclass(frozen=True, eq=False)
class ProductOperator:
    """N-site operator given as one square factor per site, M = f_1 x..x f_N."""

    dims: SiteDims
    factors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.factors) != self.dims.n:
            raise ValueError(
                f"expected {self.dims.n} factors, got {len(self.factors)}"
            )
        frozen = tuple(
            _frozen_complex(f, (d, d), f"factor for site {i + 1}")
            for i, (f, d) in enumerate(zip(self.factors, self.dims.dims))
        )
        object.__setattr__(self, "factors", frozen)

    def replace_factor(self, site: int, factor: np.ndarray) -> "ProductOperator":
        """Copy with the factor at `site` (1-based) replaced."""
        if not 1 <= site <= self.dims.n:
            raise ValueError(f"site {site} out of range 1..{self.dims.n}")
        factors = list(self.factors)
        factors[site - 1] = factor
        return ProductOperator(self.dims, tuple(factors))

    @staticmethod
    def identity(dims: SiteDims) -> "ProductOperator":
        return ProductOperator(dims, tuple(np.eye(d, dtype=complex) for d in dims.dims))

    def is_zero(self) -> bool:
        """True when some factor (hence the assembled operator) is exactly 0."""
        return any(not f.any() for f in self.factors)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over the composite space."""

    dims: SiteDims
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = _frozen_complex(self.amplitudes, (self.dims.total_dim,), "amplitudes")
        object.__setattr__(self, "amplitudes", amp)
        norm2 = float(np.vdot(amp, amp).real)
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm2!r}")

    def to_density_matrix(self) -> "DensityMatrix":
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(self.dims, mat, _check_psd=False)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense density operator with recorded per-site dimensions.

    Hermiticity and unit trace are always verified.  Positivity is verified
    via full eigendecomposition when constructed from raw entries; convex
    mixtures of already-valid states pass ``_check_psd=False`` because
    convexity preserves positivity.
    """

    dims: SiteDims
    mat: np.ndarray
    _check_psd: bool = field(default=True, repr=False, compare=False, kw_only=True)

    def __post_init__(self) -> None:
        d = self.dims.total_dim
        mat = _frozen_complex(self.mat, (d, d), "density matrix")
        object.__setattr__(self, "mat", mat)
        # over row blocks of <= 2^18 entries, so no temporary is as large as rho
        step = max(1, (1 << 18) // d)
        herm_dev = max(float(np.max(np.abs(mat[r:r + step] - mat[:, r:r + step].conj().T)))
                       for r in range(0, d, step))
        if herm_dev > HERMITICITY_TOL:
            raise ValueError(f"density matrix is not Hermitian (deviation {herm_dev:.3e})")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        if self._check_psd:
            lo = float(np.linalg.eigvalsh(mat)[0])
            if lo < -PSD_TOL:
                raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")


@dataclass(frozen=True)
class WhiteNoise:
    """The maximally mixed state I/D, held by its dimensions alone.

    Every trace against a product operator factorizes, Tr[(g_1 x..x g_N)/D]
    = prod_i tr(g_i) / D, so no D x D matrix is needed.
    """

    dims: SiteDims


State = Union[DensityMatrix, PureState, WhiteNoise]


def assemble(op: ProductOperator) -> np.ndarray:
    """Dense D x D matrix f_1 x f_2 x .. x f_N (site 1 most significant)."""
    return reduce(np.kron, op.factors)


def _check_dims(rho: State, *ops: ProductOperator) -> None:
    for op in ops:
        if op.dims.dims != rho.dims.dims:
            raise ValueError(
                f"operator dims {op.dims.dims} do not match state dims {rho.dims.dims}"
            )


def _apply_site(psi: np.ndarray, site: int, g: np.ndarray) -> np.ndarray:
    """g applied to axis `site` (0-based) of an amplitude tensor."""
    return np.moveaxis(np.tensordot(g, psi, axes=(1, site)), 0, site)


def product_trace(rho: State, factors: Sequence[np.ndarray]) -> complex:
    """Tr[rho (g_1 x .. x g_N)] contracted site by site, never assembling g.

    - dense: partial traces of the leading site, O(D^2) for the first one;
    - pure: g applied to the amplitudes, closed with <psi|.>, O(D d);
    - white noise: the running product of tr(g_i), starting from 1/D.
    """
    dims = rho.dims.dims
    if len(factors) != len(dims):
        raise ValueError(f"expected {len(dims)} factors, got {len(factors)}")
    gs = [np.asarray(g, dtype=complex) for g in factors]
    for d, g in zip(dims, gs):
        if g.shape != (d, d):
            raise ValueError(f"factor shape {g.shape} does not match site dimension {d}")
    if isinstance(rho, WhiteNoise):
        acc = 1.0 / rho.dims.total_dim
        for g in gs:
            acc = acc * np.trace(g)
        return complex(acc)
    if isinstance(rho, PureState):
        psi = acc = rho.amplitudes.reshape(dims)
        for site, g in enumerate(gs):
            acc = _apply_site(acc, site, g)
        return complex(np.vdot(psi, acc))
    acc = rho.mat
    for d, g in zip(dims, gs):
        # acc is (d*R, d*R) over sites site..N; rho'[r, s] = sum_ab acc[(a,r),(b,s)] g[b,a]
        acc = np.einsum("arbs,ba->rs", acc.reshape(d, len(acc) // d, d, -1), g)
    return complex(acc[0, 0])


def sandwich_trace(rho: State, m: ProductOperator) -> float:
    """Tr[M^dag rho M] = Tr[rho M M^dag] for a product operator M.

    Nonnegative for any valid state; values in [-psd_tol, 0) from rounding
    are clamped to 0.
    """
    _check_dims(rho, m)
    value = product_trace(rho, [f @ f.conj().T for f in m.factors]).real
    if -PSD_TOL <= value < 0.0:
        return 0.0
    return value


def cross_trace(rho: State, x: ProductOperator, y: ProductOperator) -> complex:
    """Tr[X^dag rho Y]; for pure rho = |psi><psi| this is <psi|Y X^dag|psi>."""
    _check_dims(rho, x, y)
    return product_trace(
        rho, [fy @ fx.conj().T for fx, fy in zip(x.factors, y.factors)]
    )


def subset_trace_sweep(
    rho: State,
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """All 2^N traces Tr[rho (w_1 x .. x w_N)] with w_i in {u_i, v_i}.

    ``pairs[i] = (u, v)`` supplies the two candidate factors for site i+1;
    the result is indexed by a bitmask where bit i set means site i+1 uses
    ``v``.  One route per representation, none building the 2^N operators:

    - dense: each factor at site 1 in turn (which halves the peak memory)
      gives a partial trace, then site by site one einsum per factor runs
      over the stack of all partial blocks: 4N - 2 einsum calls, O(D^2)
      time, at most (D/d_1)^2 + 2 (D/(d_1 d_2))^2 <= 3/8 D^2 extra entries;
    - white noise: the outer product of the per-site traces tr(u_i),
      tr(v_i), scaled by 1/D; O(2^N) time and memory;
    - pure: meet in the middle.  Every choice on the left half of the sites
      (L = floor(N/2)) is applied to the ket, a (2^L, D) stack, and every
      daggered choice on the right half to the bra, a (2^(N-L), D) stack;
      since the halves commute, <psi|W_L W_R|psi> = <W_R^dag psi|W_L psi>
      and one (2^(N-L), D) x (D, 2^L) product gives all 2^N traces.
      O(2^N D) time, O(2^(N/2) D) memory (about 1 MiB at N = 10 qubits).
    """
    dims = rho.dims.dims
    n = len(dims)
    if len(pairs) != n:
        raise ValueError(f"expected {n} factor pairs, got {len(pairs)}")
    pairs = [(np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)) for u, v in pairs]
    if isinstance(rho, WhiteNoise):
        out = np.array([1.0 / rho.dims.total_dim])
        for u, v in pairs:
            out = np.concatenate([out * np.trace(u), out * np.trace(v)])
        return out
    if isinstance(rho, PureState):
        half = n // 2
        ket = _choice_stack(rho.amplitudes, dims, range(half), pairs, dagger=False)
        bra = _choice_stack(rho.amplitudes, dims, range(half, n), pairs, dagger=True)
        return (bra.conj() @ ket.T).reshape(-1)
    # u and v stacked into one einsum operand would not give the same bits
    first = rho.mat.reshape(dims[0], len(rho.mat) // dims[0], dims[0], -1)
    out = np.empty(1 << n, dtype=complex)
    for c, g in enumerate(pairs[0]):
        stack = np.einsum("arbs,ba->rs", first, g)[None]
        for dm, (u, v) in zip(dims[1:], pairs[1:]):
            blocks, rest = stack.shape[0], stack.shape[1] // dm
            view = stack.reshape(blocks, dm, rest, dm, rest)
            stack = np.empty((2, blocks, rest, rest), dtype=complex)
            np.einsum("karbs,ba->krs", view, u, out=stack[0])
            np.einsum("karbs,ba->krs", view, v, out=stack[1])
            stack = stack.reshape(2 * blocks, rest, rest)
        out[c::2] = stack.reshape(-1)
    return out


def _choice_stack(amplitudes, dims, sites, pairs, dagger: bool) -> np.ndarray:
    """(2^len(sites), D) amplitudes with u or v (daggered if `dagger`)
    applied at each of `sites`; row r has v at the b-th of them when bit b
    of r is set."""
    stack = amplitudes.reshape(1, -1)
    for site in sites:
        g = np.stack(pairs[site])
        if dagger:
            g = g.conj().transpose(0, 2, 1)
        # one GEMM: (rows * pre, d, post) x (2, d, d) -> (rows * pre, post, 2, d),
        # then the u-rows, followed by the v-rows, back in site order
        out = np.tensordot(stack.reshape(-1, dims[site], prod(dims[site + 1:])), g, axes=(1, 2))
        stack = out.transpose(2, 0, 3, 1).reshape(-1, stack.shape[1])
    return stack


def pair_reduced(
    rho: State, i: int, j: int, baseline: Sequence[np.ndarray]
) -> np.ndarray:
    """`rho` contracted with baseline factors at every site except i < j.

    Sites are 0-based.  Returns the (d_i*d_j, d_i*d_j) block R with
    Tr[rho (.. g_i .. g_j ..)] = Tr[R (g_i x g_j)] for any kept-site
    factors, where every other site m carries ``baseline[m]``.  A pure
    state gives R = Psi Phi^dag, with Psi the amplitudes as a (kept, rest)
    matrix and Phi the same after applying baseline[m]^dag on the rest.
    """
    dims = rho.dims.dims
    n = len(dims)
    rest = [m for m in range(n) if m not in (i, j)]
    kept = dims[i] * dims[j]
    if isinstance(rho, WhiteNoise):
        value = 1.0 / rho.dims.total_dim
        for m in rest:
            value = value * np.trace(baseline[m])
        return value * np.eye(kept, dtype=complex)
    perm = [i, j, *rest]
    if isinstance(rho, PureState):
        psi = rho.amplitudes.reshape(dims)
        phi = psi
        for m in rest:
            phi = _apply_site(phi, m, baseline[m].conj().T)
        psi_m = np.transpose(psi, perm).reshape(kept, -1)
        phi_m = np.transpose(phi, perm).reshape(kept, -1)
        return psi_m @ phi_m.conj().T
    u_rest = np.array([[1.0 + 0.0j]])
    for m in rest:
        # the products np.kron(u_rest, baseline[m]) makes, in the same order
        b = baseline[m]
        u_rest = (u_rest[:, None, :, None] * b[None, :, None, :]).reshape(len(u_rest) * len(b), -1)
    rho_p = np.transpose(rho.mat.reshape(dims * 2), perm + [n + p for p in perm])
    rho_p = rho_p.reshape(kept, u_rest.shape[0], kept, u_rest.shape[0])
    return np.einsum("arbs,sr->ab", rho_p, u_rest)
