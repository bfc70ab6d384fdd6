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

The trace kernels at the bottom evaluate every expectation needed by the
detection criteria on a *single* copy of the state, for each of the three
representations: the operator side is kept in product form and contracted
site by site, so neither a two-copy state nor the assembled N-site operator
is ever built, and a pure state or white noise is never expanded to a D x D
matrix.  Two kernels do the contracting: `subset_trace_sweep` gives every
closed trace (`product_trace`, and through it `sandwich_trace` and
`cross_trace`, are its case of one choice per site), and `pair_blocks` the
two-site blocks.  `pair_blocks` takes sites of one dimension only and always
returns all P = N(N-1)/2 site pairs.  Both kernels check their factors
through one helper, `_checked_factors`: as many sites as the state, and at
each site one or more factors of its dimension.  Costs per representation:

- dense: O(D^2) time per trace, and for all pair blocks of `pair_blocks`
  together, one sweep of 3N - 5 einsum calls with at most 0.77 of rho extra;
  a sweep of two choices per site makes 4N - 2 einsum calls over stacks of
  partial blocks, with at most 3/8 of rho extra;
- pure: O(N D d) time and O(D) memory per trace; a sweep of two choices
  per site meets in the middle with two 2^(N/2) x D amplitude stacks and
  one matrix product, O(2^N D) time and O(2^(N/2) D) memory; `pair_blocks`
  shares two sweeps over the sites between all pairs, O(N^2 D d / 2) time
  instead of O(N^3 D d / 2) pair by pair, then one stacked product of
  O(P D d^2), with O(P D) memory (about 4 MiB per stack at D = 4096, N = 12);
- white noise: O(N d) per trace, an outer product of local traces,
  O(2^N), for two choices per site, and O(P N) scalar products for
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

from .config import HERMITICITY_TOL, NORM_TOL, PSD_TOL, TRACE_TOL, dim_cap, summation_gamma

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


def _is_int(value) -> bool:
    """An integer, and not a bool (which Python counts as one)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name: str, value, lo: int, hi: int | None = None) -> int:
    """`value` as an int, if it is an integer (`_is_int`) in lo..hi, or >= lo
    if `hi` is None: the one rule for every count, whose error names it."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if hi is None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and not lo <= value <= hi:
        raise ValueError(f"{name} must satisfy {lo} <= {name} <= {hi}, got {value}")
    return int(value)


@dataclass(frozen=True)
class SiteDims:
    """Local dimensions d_1..d_N of an N-partite system."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(_check_count(f"d_{i}", d, 2) for i, d in enumerate(self.dims, 1))
        object.__setattr__(self, "dims", dims)
        _check_site_count(len(dims), dims)

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    def is_site(self, site) -> bool:
        """Whether `site` names a site: an integer in 1..N (never a float or a bool)."""
        return _is_int(site) and 1 <= site <= self.n

    def uniform(self) -> int:
        """The shared local dimension; raises if sites differ."""
        d = self.dims[0]
        if any(di != d for di in self.dims):
            raise ValueError(f"sites have unequal dimensions {self.dims}")
        return d


def _check_site_count(n: int, dims: tuple[int, ...] = ()) -> None:
    """Reject a site count n that is not an integer >= 2, or n sites of dims
    `dims` whose product is over the dense-matrix cap.  Every dimension is
    >= 2, so n past cap.bit_length() is rejected before anything is multiplied."""
    _check_count("n", n, 2)
    cap = dim_cap()
    if n > cap.bit_length() or prod(dims) > cap:
        raise ValueError(f"N={n} sites exceed the dense-matrix cap {cap} on the total dimension")


def qubits(n: int) -> SiteDims:
    """Shorthand for n qubit sites."""
    return qudits(n, 2)


def qudits(n: int, d: int) -> SiteDims:
    """Shorthand for n sites of dimension d; an n that is not an integer,
    below 2 or past the cap is rejected before the n-tuple is built."""
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

    Hermiticity and unit trace are always verified.  Positivity, lambda_min
    >= -PSD_TOL, is verified when constructed from raw entries; convex
    mixtures of already-valid states pass ``_check_psd=False`` because
    convexity preserves positivity.

    Positivity is first tried by a Cholesky factorization of A = rho + s I
    (its lower triangle, which `eigvalsh` reads too), with s = PSD_TOL
    minus a bound on the factorization's backward error.  If it succeeds,
    R^H R = A + dA with ||dA||_2 <= gamma ||R||_F^2 <= gamma tr A / (1 -
    gamma) (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., Thm 10.3: gamma = gamma_{D+1} for any order of the inner products,
    so for blocked LAPACK too; complex arithmetic adds at most 2 to the
    index, sec. 3.6), and forming A moves its diagonal by at most u tr A.
    The trace check gives tr A <= 1 + TRACE_TOL + D PSD_TOL up to rounding,
    so bound = 2 gamma_{D+3} (1 + TRACE_TOL + D PSD_TOL) covers both (about
    9e-13 at D = 4096) and a success certifies lambda_min(rho) >= -s -
    bound = -PSD_TOL.  Only when the factorization fails does `eigvalsh`
    decide, and word the error.
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
        if self._check_psd and not _cholesky_psd(mat):
            lo = float(np.linalg.eigvalsh(mat)[0])
            if lo < -PSD_TOL:
                raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")


def _cholesky_psd(mat: np.ndarray) -> bool:
    """Whether rho + s I has a Cholesky factor, which certifies lambda_min
    >= -PSD_TOL for a checked rho; see `DensityMatrix`."""
    d = len(mat)
    bound = 2.0 * summation_gamma(d + 3) * (1.0 + TRACE_TOL + d * PSD_TOL)
    shifted = mat.copy()
    shifted.ravel()[:: d + 1] += PSD_TOL - bound
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    # a NaN pivot passes a "<= 0" test, which some LAPACK builds make
    # without an isnan; any NaN or inf of the factor reaches its diagonal
    return bool(np.isfinite(factor.diagonal()).all())


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


def product_trace(rho: State, factors: Sequence[np.ndarray]) -> complex:
    """Tr[rho (g_1 x .. x g_N)] contracted site by site, never assembling g:
    the subset sweep with one choice per site."""
    return complex(subset_trace_sweep(rho, [(g,) for g in factors])[0])


def sandwich_trace(rho: State, m: ProductOperator) -> float:
    """Tr[M^dag rho M] = Tr[rho M M^dag] for a product operator M.

    Nonnegative for any valid state; values in [-psd_tol, 0) from rounding
    are clamped to 0.
    """
    value = product_trace(rho, [f @ f.conj().T for f in m.factors]).real
    if -PSD_TOL <= value < 0.0:
        return 0.0
    return value


def cross_trace(rho: State, x: ProductOperator, y: ProductOperator) -> complex:
    """Tr[X^dag rho Y]; for pure rho = |psi><psi| this is <psi|Y X^dag|psi>."""
    return product_trace(
        rho, [fy @ fx.conj().T for fx, fy in zip(x.factors, y.factors, strict=True)]
    )


def subset_trace_sweep(
    rho: State,
    choices: Sequence[Sequence[np.ndarray]],
) -> np.ndarray:
    """All traces Tr[rho (w_1 x .. x w_N)] with w_i one of ``choices[i]``,
    the one or more candidate factors for site i+1.

    The result has prod(len(choices[i])) entries in mixed radix, site 1
    least significant: with (u, v) at every site, bit i of the index set
    means site i+1 uses v; with one choice per site it is the single trace
    of `product_trace`.  Costs below are for two choices per site; one route
    per representation, none building the assembled operators:

    - dense: each factor at site 1 in turn (which halves the peak memory)
      gives a partial trace, then site by site one einsum per factor runs
      over the stack of all partial blocks: 4N - 2 einsum calls, O(D^2)
      time, at most (D/d_1)^2 + 2 (D/(d_1 d_2))^2 <= 3/8 D^2 extra entries;
    - white noise: the outer product of the per-site traces tr(w_i),
      scaled by 1/D; O(2^N) time and memory;
    - pure: meet in the middle.  Every choice on the left half of the sites
      (L = floor(N/2)) is applied to the ket, a (2^L, D) stack, and every
      daggered choice on the right half to the bra, a (2^(N-L), D) stack;
      since the halves commute, <psi|W_L W_R|psi> = <W_R^dag psi|W_L psi>
      and one (2^(N-L), D) x (D, 2^L) product gives all 2^N traces.
      O(2^N D) time, O(2^(N/2) D) memory (about 1 MiB at N = 10 qubits).
    """
    dims = rho.dims.dims
    n = len(dims)
    choices = _checked_factors(dims, choices)
    if isinstance(rho, WhiteNoise):
        out = np.array([1.0 / rho.dims.total_dim])
        for site in choices:
            out = np.concatenate([out * np.trace(g) for g in site])
        return out
    if isinstance(rho, PureState):
        half = n // 2
        ket = _choice_stack(rho.amplitudes, dims, range(half), choices, dagger=False)
        bra = _choice_stack(rho.amplitudes, dims, range(half, n), choices, dagger=True)
        return (bra.conj() @ ket.T).reshape(-1)
    # a site's choices stacked into one einsum operand would not give the same bits
    first = rho.mat.reshape(dims[0], len(rho.mat) // dims[0], dims[0], -1)
    out = np.empty(prod(map(len, choices)), dtype=complex)
    for c, g in enumerate(choices[0]):
        stack = np.einsum("arbs,ba->rs", first, g)[None]
        for dm, site in zip(dims[1:], choices[1:]):
            blocks, rest = stack.shape[0], stack.shape[1] // dm
            view = stack.reshape(blocks, dm, rest, dm, rest)
            stack = np.empty((len(site), blocks, rest, rest), dtype=complex)
            for s, w in enumerate(site):
                np.einsum("karbs,ba->krs", view, w, out=stack[s])
            stack = stack.reshape(-1, rest, rest)
        out[c::len(choices[0])] = stack.reshape(-1)
    return out


def _checked_factors(dims: tuple[int, ...], choices) -> list[list[np.ndarray]]:
    """`choices`, one or more candidate factors per site, as complex arrays;
    raises unless there is one nonempty sequence of (d, d) factors for each
    site of `dims`."""
    n = len(dims)
    if len(choices) != n:
        raise ValueError(f"{len(choices)} sites of factors do not match the state's {n} sites")
    choices = [[np.asarray(g, dtype=complex) for g in site] for site in choices]
    if not all(choices) or not all(g.shape == (d, d) for d, site in zip(dims, choices) for g in site):
        for i, (d, site) in enumerate(zip(dims, choices), start=1):  # to word the error
            if not site or any(g.shape != (d, d) for g in site):
                shapes = [g.shape for g in site]
                raise ValueError(f"factor shapes {shapes} do not match site {i} of dimension {d}")
    return choices


def _choice_stack(amplitudes, dims, sites, choices, dagger: bool) -> np.ndarray:
    """(prod of the choice counts at `sites`, D) amplitudes with one choice
    (daggered if `dagger`) applied at each of `sites`; the row index is the
    choices in mixed radix, the first of `sites` least significant."""
    stack = amplitudes.reshape(1, -1)
    for site in sites:
        g = np.array(choices[site])
        if dagger:
            g = g.conj().transpose(0, 2, 1)
        # one GEMM: (rows * pre, d, post) x (C, d, d) -> (rows * pre, post, C, d),
        # then the rows of each choice in turn, back in site order
        out = np.tensordot(stack.reshape(-1, dims[site], prod(dims[site + 1:])), g, axes=(1, 2))
        stack = out.transpose(2, 0, 3, 1).reshape(-1, stack.shape[1])
    return stack


def pair_blocks(rho: State, baseline: Sequence[np.ndarray]) -> np.ndarray:
    """Pair blocks of `rho`, whose sites must share one dimension d: for
    each pair of 0-based sites i < j, in np.triu_indices order, the
    (d^2, d^2) block R with Tr[rho (.. g_i .. g_j ..)] = Tr[R (g_i x g_j)]
    for any kept-site factors, where every other site m carries
    ``baseline[m]``.  The result is (P, d^2, d^2).

    - dense: one sweep from the left.  For each j, a stack K_j holds one
      row per i < j: rho with site i open and every other site < j
      contracted with its baseline factor.  One einsum of K_j with U_j, the
      kron of baseline[m] over m > j, gives the blocks of every pair (i, j);
      one more contracts site j of K_j, and one contracts site j - 1 of
      C_{j-1} into C_j, rho with every site < j contracted, which is the
      new row j of K_{j+1}.  O(D^2) time, no copy of rho (K_1 is rho
      itself), and at most 2/d^2 + 3/d^4 + 1/(d^4 - d^2) of rho's bytes
      extra (0.77 for qubits): K_2, K_3 and every U_j at once;
    - white noise: the identity times 1/D and the per-site traces
      tr(baseline[m]) of each pair's rest sites, multiplied in increasing m;
    - pure: two sweeps over the sites that all pairs share
      (`_split_applied`), then every pair's block in one stacked matmul.
    """
    dims = rho.dims.dims
    n = len(dims)
    kept = rho.dims.uniform() ** 2
    baseline = [site[0] for site in _checked_factors(dims, [(b,) for b in baseline])]
    pairs = tuple(combinations(range(n), 2))
    if isinstance(rho, WhiteNoise):
        # scalar products, left to right: numpy's complex array multiply
        # may fuse a multiply-add, its scalar multiply does not
        traces = [np.trace(b) for b in baseline]
        value = [reduce(mul, (t for m, t in enumerate(traces) if m not in pair),
                        1.0 / rho.dims.total_dim) for pair in pairs]
        return np.array(value)[:, None, None] * np.eye(kept, dtype=complex)
    if isinstance(rho, PureState):
        u, w = _split_applied(rho.amplitudes, baseline)
        u_at, w_at = _pair_gather(dims)
        return u.take(u_at) @ w.take(w_at).transpose(0, 2, 1)
    d, size = dims[0], rho.dims.total_dim
    # suffix[j - 1] is U_j^T: the einsum with K_j then reads both operands
    # in memory order, which is faster than U_j at D = 1024
    suffix = [np.ones((1, 1), dtype=complex)]
    for b in baseline[:1:-1]:
        u = suffix[-1]
        # np.kron(b.T, u), without its 10 us of Python overhead per call
        suffix.append((b.T[:, None, :, None] * u[None, :, None, :]).reshape(d * len(u), -1))
    suffix.reverse()
    # blocks of the pairs (i, j) at j(j-1)/2 + i; K_j rows over (site i,
    # sites j..N-1) and C_j over sites j..N-1
    blocks = np.empty((len(pairs), kept, kept), dtype=complex)
    stack, c = rho.mat.reshape(1, size, size), rho.mat
    for j in range(1, n):
        rest = size // d ** (j + 1)
        np.einsum("karbs,rs->kab", stack.reshape(j, kept, rest, kept, rest), suffix[j - 1],
                  out=blocks[j * (j - 1) // 2 : j * (j + 1) // 2])
        if j == n - 1:
            break
        nxt = np.empty((j + 1, d * rest, d * rest), dtype=complex)
        np.einsum("kaxrbys,yx->karbs", stack.reshape(j, d, d, rest, d, d, rest), baseline[j],
                  out=nxt[:j].reshape(j, d, rest, d, rest))
        np.einsum("arbs,ba->rs", c.reshape(d, d * rest, d, d * rest), baseline[j - 1], out=nxt[j])
        stack, c = nxt, nxt[j]
    return blocks.take(_sweep_order(n), axis=0)


@lru_cache(maxsize=16)
def _sweep_order(n: int) -> np.ndarray:
    """Read-only positions j(j-1)/2 + i, in the dense sweep's order of the
    pair blocks, of the pairs (i, j) in np.triu_indices order."""
    i, j = np.triu_indices(n, 1)
    order = j * (j - 1) // 2 + i
    order.setflags(write=False)
    return order


@lru_cache(maxsize=16)  # an entry is 2 P D indices, 4.3 MiB at D = 4096, N = 12
def _pair_gather(dims: tuple[int, ...]):
    """Read-only (P, kept, rest) flat indices into the two stacks of
    `_split_applied` that lay out, for each pair (i, j) in np.triu_indices
    order, row j(j-1)/2 + i of u and row j of w as (kept, rest) matrices:
    sites i, j first, the rest in increasing order.  A row "rotated by r"
    holds the sites r..N-1, 0..r-1 in that order; row j(j-1)/2 + i of u is
    rotated by j, and row j of w by j + 1."""
    n, size = len(dims), prod(dims)

    def matrix(row: int, r: int, i: int, j: int) -> np.ndarray:
        at = np.arange(row * size, (row + 1) * size).reshape(dims)  # every site has one d
        at = np.moveaxis(at, range(n), [*range(r % n, n), *range(r % n)])
        return np.moveaxis(at, (i, j), (0, 1)).reshape(dims[i] * dims[j], -1)

    pairs = tuple(combinations(range(n), 2))
    gathers = (np.stack([matrix(j * (j - 1) // 2 + i, j, i, j) for i, j in pairs]),
               np.stack([matrix(j, j + 1, i, j) for i, j in pairs]))
    for a in gathers:
        a.setflags(write=False)
    return gathers


def _split_applied(psi: np.ndarray, baseline) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude stacks (P, D) u and (N, D) w with, for each pair (i, j),
    R = U W^T, U and W row j(j-1)/2 + i of u and row j of w as (kept, rest)
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
    u = np.empty((n * (n - 1) // 2, size), dtype=complex)
    # rotated by m at site m: ket with baseline[m'] at every m' < m, and
    # the m rows skipping one site a < m each, in increasing a
    ket = psi.reshape(1, -1)
    skips = ket[:0]
    for m, b in enumerate(baseline):
        u[m * (m - 1) // 2 : m * (m + 1) // 2] = skips
        if m == n - 1:
            break
        d, rest = len(b), size // len(b)
        out = np.empty((m + 1, rest, d), dtype=complex)
        np.matmul(skips.reshape(m, d, rest).transpose(0, 2, 1), b.T, out=out[:m])
        out[m] = ket.reshape(d, rest).T
        skips = out.reshape(m + 1, size)
        if m < n - 2:
            ket = (ket.reshape(d, rest).T @ b.T).reshape(1, size)
    w = np.empty((n, size), dtype=complex)
    w[n - 1] = psi.conj()
    for m in range(n - 1, 1, -1):
        # row m is rotated by m + 1, so site m is last; row m - 1 has it first
        b = baseline[m]
        w[m - 1] = (b.T @ w[m].reshape(-1, len(b)).T).reshape(-1)
    return u, w
