"""Detection thresholds along white-noise families.

Every trace entering a criterion is linear in rho, and a noise family is a
weighted sum of fixed components (pure signals and white noise), so the
criterion's trace bundle along the family is the same weighted sum of
per-component bundles.  `FamilyMargin` computes those component bundles
once, from the signals' amplitudes and analytically for white noise; a
margin evaluation at any mixing weights is then a few array operations,
and one call evaluates a whole batch of weights.  Every threshold, of one
slice, a table row or all gridlines of a scan, comes from one batched
bisection (`_slice_thresholds`).

The margin of the summed criteria (T1, and T2 for every k) is *convex*
in the scanned weight, not affine: |affine| terms minus square roots of
products of nonnegative affine terms.  So on a slice where the margin is
not positive at the low end it crosses zero at most once; see
`_bisect_margin` for what is and is not checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .criteria import (
    CriterionReport,
    Margins,
    Theorem1Evaluator,
    Theorem2Evaluator,
    ghz_probe,
    w_probe,
    w_tilde_probe,
)
from .states import NoiseFamily, _check_k, component_weights, ghz_noise_family, w_noise_family
from .tensor import WhiteNoise

__all__ = [
    "ThresholdResult",
    "BoundaryPoint",
    "FamilyMargin",
    "bisection_threshold",
    "ghz_noise_closed_form",
    "example2_closed_form",
    "ghz_threshold_table",
    "pq_boundary_scan",
    "boundary_scan_csv",
    "threshold_table_csv",
    "COMPARISON_THRESHOLDS_8QUBIT",
]

#: Published thresholds of an alternative (quantum-Fisher-information based)
#: criterion on the same 8-qubit GHZ noise family, k = 1..7.  Shipped as
#: reference constants for the comparison column of the threshold table;
#: never recomputed here.
COMPARISON_THRESHOLDS_8QUBIT = (0.8015, 0.6279, 0.4790, 0.3550, 0.2557, 0.1811, 0.1315)

#: Bracket width at which bisection stops, and its iteration limit.
_TOL = 1e-8
_MAX_ITER = 60


@dataclass(frozen=True)
class ThresholdResult:
    """Detection threshold along a one-parameter slice of a noise family.

    ``p_star`` is None when the slice is empty or the margin is not
    certified at its top; ``residual`` is the margin at the root, or at the
    top of the slice when there is none (NaN for an empty slice).
    """

    k: int
    p_star: float | None
    residual: float


@dataclass(frozen=True)
class BoundaryPoint:
    """One gridline of a boundary scan: scanned-variable root at a fixed
    value of the other mixing weight."""

    k: int
    gridline: float
    star: float | None
    residual: float


class FamilyMargin:
    """Criterion margins along a noise family from per-component bundles.

    One bundle per pure signal, computed from its amplitudes, and one for
    white noise, computed from the probe factors alone: no D x D matrix is
    built.  `margins` evaluates a batch of parameter rows at once; a row
    gives the same bits as a one-row call, because bundles are combined
    left to right and each row is reduced in the same order.
    """

    def __init__(self, family: NoiseFamily, evaluator):
        self.family = family
        self.evaluator = evaluator
        components = [*family.signals, WhiteNoise(family.dims)]
        self._bundles = [evaluator.traces(c) for c in components]
        self._combine = type(self._bundles[0]).combine

    def _weights(self, params) -> np.ndarray:
        """Component weights (..., n_signals + 1) for parameter rows
        (..., n_signals); the last column is the white-noise weight."""
        params = np.asarray(params, dtype=float)
        n_signals = len(self.family.signals)
        if params.ndim == 0 or params.shape[-1] != n_signals:
            raise ValueError(
                f"family takes {n_signals} parameters, got {params.shape[-1:] or 'a scalar'}"
            )
        return component_weights(params)

    def margins(self, params, k: int) -> Margins:
        """Criterion values at one parameter row, or at each row of a
        (B, n_signals) batch."""
        bundle = self._combine(self._bundles, self._weights(params))
        return self.evaluator.margins(bundle, k)

    def report(self, params: Sequence[float], k: int) -> CriterionReport:
        bundle = self._combine(self._bundles, self._weights(params))
        return self.evaluator.report(bundle, k)

    def margin(self, params: Sequence[float], k: int) -> float:
        return float(self.margins(params, k).margin)


def _bisect_margin(f, lo: np.ndarray, hi: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Root of each row of a batch of margin functions on [lo, hi].

    ``f(t)`` maps one scanned weight per row to the criterion's `Margins`
    there.  Returns (root, residual) arrays, row by row:

    - not certified at hi: root NaN (no detection), residual f(hi);
    - certified at lo: root lo, residual f(lo);
    - otherwise the bracket is halved until it is at most `tol` wide (or
      `_MAX_ITER` times); root is its midpoint, residual f(root).

    The endpoints use the certificate rule (`Margins.detected`): they
    decide whether the slice holds a detection at all.  Inside the bracket
    the loop tests the sign of the margin, because it locates the margin's
    zero, the edge of the detected region; testing against the rounding
    allowance there would move every root by an amount set by the
    allowance, not by the criterion.

    A single crossing is assumed, not checked.  The summed criteria have
    convex margins, so a slice whose margin is at most 0 at lo and positive
    at hi crosses zero exactly once.  A margin certified at lo is reported
    as detected on the whole slice, although a convex margin positive at
    both ends can still dip below zero between them.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    at_hi = f(hi)
    at_lo = f(lo)
    bisect = at_hi.detected & ~at_lo.detected
    a, b = lo, hi
    for _ in range(_MAX_ITER):
        live = bisect & (b - a > tol)
        if not live.any():
            break
        mid = 0.5 * (a + b)
        up = f(mid).margin > 0.0
        b = np.where(live & up, mid, b)
        a = np.where(live & ~up, mid, a)
    mid = 0.5 * (a + b)
    at_mid = f(np.where(bisect, mid, lo))
    root = np.where(bisect, mid, np.where(at_hi.detected, lo, np.nan))
    residual = np.where(
        bisect, at_mid.margin, np.where(at_hi.detected, at_lo.margin, at_hi.margin)
    )
    return root, residual


def _slice_thresholds(
    fm: FamilyMargin, k: int, fixed: np.ndarray, axis: int, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """(root, residual) of the margin along one family parameter, for each
    row of a (B, n_signals - 1) batch of fixed weights.

    The scanned weight is inserted at column `axis` and bisected over
    [0, 1 - sum(row)] for all rows at once (see `_bisect_margin`).  An empty
    slice (1 - sum(row) <= 0) has root NaN and residual NaN.
    """
    hi = 1.0 - fixed.sum(axis=1)
    empty = hi <= 0.0
    # one parameter buffer for every step: `margins` keeps no reference to it
    params = np.insert(fixed, axis, 0.0, axis=1)

    def f(t: np.ndarray) -> Margins:
        params[:, axis] = t
        return fm.margins(params, k)

    root, residual = _bisect_margin(f, np.zeros_like(hi), np.where(empty, 0.0, hi), tol)
    return np.where(empty, np.nan, root), np.where(empty, np.nan, residual)


def bisection_threshold(
    family: NoiseFamily,
    evaluator,
    k: int,
    tol: float = _TOL,
    *,
    fixed: Sequence[float] = (),
    axis: int = 0,
) -> ThresholdResult:
    """Bisect the criterion margin along one family parameter.

    `evaluator` is a criterion evaluator (`Theorem1Evaluator`,
    `Theorem2Evaluator` or `Theorem2K1Evaluator`) whose probes match the
    family dimensions.  `axis` selects which mixing weight is scanned; the
    remaining weights are taken from `fixed` in order.  The margin is
    convex in the scanned weight for the summed criteria (T1, T2), so it
    crosses zero once when it is not certified at weight 0; the per-tuple
    k = 1 margin is not convex, and a single crossing is then assumed (see
    `_bisect_margin`).  The result carries ``p_star=None`` when the slice
    is empty (the fixed weights sum to 1) or the margin is not certified at
    its top.
    """
    n_params = len(family.signals)
    if len(fixed) != n_params - 1:
        raise ValueError(f"need {n_params - 1} fixed weights, got {len(fixed)}")
    if not 0 <= axis < n_params:
        raise ValueError(f"axis must be in 0..{n_params - 1}, got {axis}")
    component_weights(fixed)  # finite, nonnegative, summing to at most 1
    rows = np.asarray(fixed, dtype=float).reshape(1, -1)
    (root,), (residual,) = _slice_thresholds(FamilyMargin(family, evaluator), k, rows, axis, tol)
    p_star = None if np.isnan(root) else float(root)
    return ThresholdResult(k=k, p_star=p_star, residual=float(residual))


def ghz_noise_closed_form(n: int, k: int) -> float:
    """Exact detection threshold of the subset-swap criterion with the GHZ
    probe preset on rho(p) = p |GHZ_n><GHZ_n| + (1-p) I/2^n.

    The margin vanishes at (2^{k+1}-2) p/2 = (2^n-2)(1-p)/2^n, i.e.
    p = c / (2^k - 1 + c) with c = (2^n - 2)/2^n.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    _check_k(n, k)
    c = (2**n - 2) / 2**n
    return c / ((2**k - 1) + c)


def example2_closed_form(n: int, k: int, d: int) -> float:
    """Exact detection threshold of the site-probe criterion with the W
    probe preset on rho(p, 0) = p |W><W| + (1-p) I/d^n:

        N(d-1)(2N-k-2) / (k d^N + N(d-1)(2N-k-2)).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    num = n * (d - 1) * (2 * n - k - 2)
    return num / (k * d**n + num)


def ghz_threshold_table(n: int = 8) -> list[tuple[int, float, float | None]]:
    """(k, bisected threshold, comparison constant) for k = 1..n-1.

    The comparison column holds the published alternative-criterion values
    and is only available for the 8-qubit family.
    """
    family = ghz_noise_family(n)
    fm = FamilyMargin(family, Theorem1Evaluator(*ghz_probe(family.dims)))
    rows = []
    for k in range(1, n):
        (root,), _ = _slice_thresholds(fm, k, np.empty((1, 0)), 0, _TOL)
        reference = COMPARISON_THRESHOLDS_8QUBIT[k - 1] if n == 8 else None
        rows.append((k, float(root), reference))
    return rows


def pq_boundary_scan(
    n: int, d: int, k: int, grid: int, probe: str = "w"
) -> list[BoundaryPoint]:
    """Detection boundary of the site-probe criterion over the (p, q) simplex.

    With ``probe="w"`` the scan bisects the W-signal weight p along q
    gridlines j/grid, j = 0..grid; ``probe="wtilde"`` uses the mirrored
    probe preset and bisects q along p gridlines (the natural
    parameterization of the mirrored detection region).  Gridlines with no
    crossing, and the empty slice at gridline 1, are recorded with
    ``star=None``.
    """
    family = w_noise_family(n, d)
    if probe == "w":
        evaluator = Theorem2Evaluator(*w_probe(family.dims))
        axis = 0
    elif probe == "wtilde":
        evaluator = Theorem2Evaluator(*w_tilde_probe(family.dims))
        axis = 1
    else:
        raise ValueError(f"probe must be 'w' or 'wtilde', got {probe!r}")
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    g = np.arange(grid + 1) / grid
    roots, residuals = _slice_thresholds(
        FamilyMargin(family, evaluator), k, g[:, None], axis, _TOL
    )
    return [
        BoundaryPoint(
            k=k,
            gridline=float(gl),
            star=None if np.isnan(root) else float(root),
            residual=float(res),
        )
        for gl, root, res in zip(g, roots, residuals)
    ]


def _fmt(x: float | None) -> str:
    if x is None or np.isnan(x):
        return "none"
    return f"{x:.10g}"


def boundary_scan_csv(rows: Sequence[BoundaryPoint], gridline_name: str = "q", star_name: str = "p_star") -> str:
    """Deterministic CSV for boundary rows (10 significant digits)."""
    lines = [f"k,{gridline_name},{star_name},margin_residual"]
    for r in rows:
        lines.append(f"{r.k},{_fmt(r.gridline)},{_fmt(r.star)},{_fmt(r.residual)}")
    return "\n".join(lines) + "\n"


def threshold_table_csv(rows: Sequence[tuple[int, float, float | None]]) -> str:
    """Deterministic CSV for the GHZ threshold table."""
    lines = ["k,p_k,p_k_reference"]
    for k, p_k, ref in rows:
        lines.append(f"{k},{_fmt(p_k)},{_fmt(ref)}")
    return "\n".join(lines) + "\n"
