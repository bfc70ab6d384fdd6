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
`product_trace`, `subset_trace_sweep`, `pair_blocks`) evaluate every
expectation needed by the detection criteria on a *single* copy of the
state, for each of the three representations: the operator side is kept
in product form and contracted site by site, so neither a two-copy state
nor the assembled N-site operator is ever built, and a pure state or white
noise is never expanded to a D x D matrix.  Costs per representation, with
P = N(N-1)/2 site pairs:

- dense: O(D^2) time per trace, and per pair block of `pair_blocks`, which
  still contracts (and copies) rho once per pair; `subset_trace_sweep`
  makes 4N - 2 einsum calls over stacks of partial blocks, with at most 3/8
  of rho extra;
- pure: O(N D d) time and O(D) memory per trace; `subset_trace_sweep`
  meets in the middle with two 2^(N/2) x D amplitude stacks and one
  matrix product, O(2^N D) time and O(2^(N/2) D) memory; `pair_blocks`
  shares two sweeps over the sites between all pairs, O(N^2 D d / 2) time
  instead of O(N^3 D d / 2) pair by pair, then one stacked product of
  O(P D d^2), with O(P D) memory (about 4 MiB per stack at D = 4096, N = 12);
- white noise: O(N d) per trace, an outer product of local traces,
  O(2^N), for `subset_trace_sweep`, and O(P N) scalar products for
  `pair_blocks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations
from math import prod
from operator import mul
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
    "pair_blocks",
    "pair_reduced",
]


def _frozen_complex(a: np.ndarray | Sequence, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Validated read-only complex copy of `a` with the required shape."""
    arr = np.array(a, dtype=complex, order="C")
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr.view(float)).all():  # the method skips np.all's Python wrapper
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

    def is_site(self, site) -> bool:
        """Whether `site` names a site: an integer in 1..N (a float never does)."""
        return isinstance(site, (int, np.integer)) and 1 <= site <= self.n

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
        if not self.dims.is_site(site):
            raise ValueError(f"site {site!r} out of range 1..{self.dims.n}")
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


def pair_blocks(
    rho: State, baseline: Sequence[np.ndarray], pairs: Sequence[tuple[int, int]] | None = None
) -> np.ndarray:
    """Pair blocks of `rho`: for each pair of 0-based sites i < j (all of
    them in np.triu_indices order by default), the (d_i*d_j, d_i*d_j)
    block R with Tr[rho (.. g_i .. g_j ..)] = Tr[R (g_i x g_j)] for any
    kept-site factors, where every other site m carries ``baseline[m]``.
    The pairs must share d_i*d_j; the result is (P, d_i*d_j, d_i*d_j).

    - dense: each pair's rest sites contracted with the baseline factors
      joined into one matrix, and rho copied once per pair;
    - white noise: the identity times 1/D and the per-site traces
      tr(baseline[m]) of each pair's rest sites, multiplied in increasing m;
    - pure: two sweeps over the sites that all pairs share
      (`_split_applied`), then every pair's block in one stacked matmul.
    """
    dims = rho.dims.dims
    n = len(dims)
    if pairs is None:
        pairs = tuple(combinations(range(n), 2))
    else:
        pairs = tuple(map(tuple, pairs))
        if not pairs or not all(0 <= i < j < n for i, j in pairs):
            raise ValueError(f"pairs must be sites 0 <= i < j < {n}, got {pairs}")
    kept = dims[pairs[0][0]] * dims[pairs[0][1]]
    if isinstance(rho, WhiteNoise):
        # scalar products, left to right: numpy's complex array multiply
        # may fuse a multiply-add, its scalar multiply does not
        traces = [np.trace(b) for b in baseline]
        value = [reduce(mul, (t for m, t in enumerate(traces) if m not in pair),
                        1.0 / rho.dims.total_dim) for pair in pairs]
        return np.array(value)[:, None, None] * np.eye(kept, dtype=complex)
    if isinstance(rho, PureState):
        u, w = _split_applied(rho.amplitudes, baseline, pairs)
        u_at, w_at = _pair_gather(dims, pairs)
        return u.take(u_at) @ w.take(w_at).transpose(0, 2, 1)
    blocks = np.empty((len(pairs), kept, kept), dtype=complex)
    for p, (i, j) in enumerate(pairs):
        rest = [m for m in range(n) if m not in (i, j)]
        u_rest = np.array([[1.0 + 0.0j]])
        for m in rest:
            # the products np.kron(u_rest, baseline[m]) makes, in the same order
            b = baseline[m]
            u_rest = (u_rest[:, None, :, None] * b[None, :, None, :]).reshape(len(u_rest) * len(b), -1)
        perm = [i, j, *rest]
        rho_p = np.transpose(rho.mat.reshape(dims * 2), perm + [n + q for q in perm])
        rho_p = rho_p.reshape(kept, u_rest.shape[0], kept, u_rest.shape[0])
        blocks[p] = np.einsum("arbs,sr->ab", rho_p, u_rest)
    return blocks


@lru_cache(maxsize=16)  # an entry is 2 P D indices, 4.3 MiB at D = 4096, N = 12
def _pair_gather(dims: tuple[int, ...], pairs: tuple[tuple[int, int], ...]):
    """Read-only (P, kept, rest) flat indices into the two stacks of
    `_split_applied` that lay out, for each pair (i, j), its row of u and
    row j of w as (kept, rest) matrices: sites i, j first, the rest in
    increasing order.  A row "rotated by r" holds the sites r..N-1, 0..r-1
    in that order; u holds the pairs in (j, i) order, rotated by j, and
    row j of w is rotated by j + 1."""
    n, size = len(dims), prod(dims)

    def matrix(row: int, r: int, i: int, j: int) -> np.ndarray:
        order = [*range(r % n, n), *range(r % n)]
        at = np.arange(row * size, (row + 1) * size).reshape([dims[m] for m in order])
        at = np.moveaxis(at, range(n), order)
        return np.moveaxis(at, (i, j), (0, 1)).reshape(dims[i] * dims[j], -1)

    u_row = {p: r for r, p in enumerate(sorted(set(pairs), key=lambda p: p[::-1]))}
    gathers = (np.stack([matrix(u_row[i, j], j, i, j) for i, j in pairs]),
               np.stack([matrix(j, j + 1, i, j) for i, j in pairs]))
    for a in gathers:
        a.setflags(write=False)
    return gathers


def _split_applied(psi: np.ndarray, baseline, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude stacks (P, D) u and (N, D) w with, for each pair (i, j),
    R = U W^T, U and W its row of u and row j of w as (kept, rest)
    matrices (`_pair_gather`): its pair block.

    R = Psi B^T Psi^dag, with Psi the amplitudes as a (kept, rest) matrix
    and B the baseline factors on the rest, splits at j into U = Psi B_<^T
    and W = conj(Psi) B_>, B_< holding the rest sites before j and B_> the
    sites after it.  So one sweep from the left keeps the amplitudes with
    baseline[m] applied at every site m < j but one skipped site i, one
    row per i, and takes u from it at each j; one sweep from the right
    applies conj(baseline[m]^dag) to conj(psi) for w.  That is about
    N^2 D d / 2 operations for all pairs, against N^3 D d / 2 pair by pair.

    A row rotated by m holds the sites m..N-1, 0..m-1 in that order: each
    matmul applies one site at either end of a row and moves it to the
    other end, so no step copies a stack.
    """
    n, size = len(baseline), psi.size
    wanted, firsts = set(pairs), {i for i, _ in pairs}
    last_i, last = max(firsts), max(j for _, j in pairs)
    u = np.empty((len(wanted), size), dtype=complex)
    # rotated by m at site m: ket with baseline[m'] at every m' < m, and
    # the rows skipping one site a each, in increasing a
    ket = psi.reshape(1, -1)
    skips, skipped, taken = ket[:0], [], 0
    for m, b in enumerate(baseline):
        rows = [r for r, a in enumerate(skipped) if (a, m) in wanted]
        u[taken : taken + len(rows)] = skips[rows]
        taken += len(rows)
        if m == last:
            break
        d, rest = len(b), size // len(b)
        out = np.empty((len(skipped) + (m in firsts), rest, d), dtype=complex)
        np.matmul(skips.reshape(len(skips), d, rest).transpose(0, 2, 1), b.T,
                  out=out[: len(skipped)])
        if m in firsts:
            out[-1] = ket.reshape(d, rest).T
            skipped = skipped + [m]
        skips = out.reshape(len(out), size)
        if m < last_i:
            ket = (ket.reshape(d, rest).T @ b.T).reshape(1, size)
    w = np.empty((n, size), dtype=complex)
    w[n - 1] = psi.conj()
    for m in range(n - 1, min(j for _, j in pairs), -1):
        # row m is rotated by m + 1, so site m is last; row m - 1 has it first
        b = baseline[m]
        w[m - 1] = (b.T @ w[m].reshape(-1, len(b)).T).reshape(-1)
    return u, w


def pair_reduced(
    rho: State, i: int, j: int, baseline: Sequence[np.ndarray]
) -> np.ndarray:
    """The block of the one pair i < j (0-based sites) of `pair_blocks`."""
    return pair_blocks(rho, baseline, ((i, j),))[0]
