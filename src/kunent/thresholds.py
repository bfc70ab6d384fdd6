"""Detection thresholds along white-noise families.

Every trace entering a criterion is linear in rho, and a noise family is a
weighted sum of fixed components (pure signals and white noise), so the
criterion's trace bundle along the family is the same weighted sum of
per-component bundles.  `FamilyMargin` computes those component bundles
once, from the signals' amplitudes and analytically for white noise, and
keeps only their distinct columns; a margin evaluation at any mixing
weights is then a few array operations, and one call evaluates a whole
batch of weights, each row at its own k, on the distinct columns.  Every
threshold comes from one batched bisection (`_slice_thresholds`) over all k
of a scan at once.

The margin of the summed criteria (T1, and T2 for every k) is *convex*
in the scanned weight, not affine: |affine| terms minus square roots of
products of nonnegative affine terms.  So on a slice where the margin is
not positive at the low end it crosses zero at most once, and a few chord
steps bracket that zero between two evaluated points; the bisection then
evaluates only its midpoints inside the bracket, because convexity fixes
the sign of every other one.  The roots and residuals are those of
evaluating every midpoint; see `_bisect_margin` for the argument and for
what is and is not checked.
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
from .states import W_PARAMS, NoiseFamily, _check_k, component_weights, ghz_noise_family, w_noise_family
from .tensor import WhiteNoise, _check_count, qudits

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
#: never recomputed here.  As an observed fit, not a derivation, each is
#: within 1e-4 of the root p of F = (4/5)((N - k + 1)^2 + k - 1) at N = 8,
#: F = N^2 p^2 / (p + 2(1 - p)/2^N) the quantum Fisher information of the
#: family for J_z; the 4/5 and the k - 1 are not derived here.
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

    Site-permutation symmetric families repeat entries (the W family's
    bundles at n = 5, d = 4 hold 6 distinct columns among 466 entries), so
    only each field's distinct columns (`np.unique`) are kept and mixed, by
    the bundle class's `combine`.  `margins` hands them to the criterion with
    each field's entry->column map, so its elementwise work runs once per
    distinct value (`criteria._gather`).  The bits are those of mixing every
    entry, as `report` does: np.unique merges columns equal up to the sign
    of a zero, and the mix, from 0 + as `sum` does, turns -0.0 into +0.0.
    """

    def __init__(self, family: NoiseFamily, evaluator):
        self.family = family
        self.evaluator = evaluator
        bundles = [evaluator.traces(c) for c in (*family.signals, WhiteNoise(family.dims))]
        cls = type(bundles[0])
        self._combine = cls.combine
        self._inverse, columns = {}, []
        for name in cls._mixed:
            stacked = np.stack([getattr(b, name) for b in bundles])
            if stacked.ndim > 1:  # a field of one entry per bundle is its own column
                stacked, inverse = np.unique(stacked.reshape(len(bundles), -1), axis=1,
                                             return_inverse=True)
                self._inverse[name] = inverse.reshape(np.shape(getattr(bundles[0], name)))
            columns.append(stacked)
        kept = [getattr(bundles[0], name) for name in cls._kept]
        self._columns = [cls(*kept, *(c[i] for c in columns)) for i in range(len(bundles))]

    def margins(self, params, k) -> Margins:
        """Criterion values at one parameter row (n_signals,), or at each row
        of a (B, n_signals) batch, at one k or at an int array of one k per
        row; the white-noise weight is 1 - sum(row)."""
        params = np.asarray(params, dtype=float)
        n_signals = len(self.family.signals)
        if params.ndim == 0 or params.shape[-1] != n_signals:
            raise ValueError(f"family takes {n_signals} parameters, "
                             f"got {params.shape[-1:] or 'a scalar'}")
        mixed = self._combine(self._columns, component_weights(params))
        return self.evaluator.margins(mixed, k, self._inverse)

    def report(self, params: Sequence[float], k: int) -> CriterionReport:
        """The evaluator's report of the family point, which lists every term."""
        return self.evaluator.evaluate(self.family.evaluate(*params), k)

    def margin(self, params: Sequence[float], k: int) -> float:
        return float(self.margins(params, k).margin)


def _chord_bracket(f, lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray, f_hi: np.ndarray,
                   chord: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluated points s < t around the zero of each `chord` row's convex
    margin, f(s) <= 0 < f(t), narrowed until t - s <= `_TOL`; the other
    rows keep [lo, hi].  A `chord` row has f(lo) <= 0 < f(hi).

    Each step evaluates two points of every open row in one `f` call
    (the regula-falsi and secant steps of Brent's root finder): u, the zero
    of the chord through (s, f(s)) and (t, f(t)), which lies on or below
    the root because a convex f lies under its chords; and v, the zero of
    the line through the two nearest evaluated points on one side of the
    root, which lies on or above it because f lies over such a line outside
    the two points.  A point where f <= 0 becomes s, one where f > 0
    becomes t.  u is kept `_TOL`/4 or more inside the bracket, and v as far
    above u and below t (just above u while no side has two points yet),
    so each step moves s or t by at least `_TOL`/4.  A row whose two signs
    contradict convexity (f(u) > 0 >= f(v)) gets [lo, hi] back.
    """
    step = _TOL / 4
    s, t, fs, ft = lo.copy(), hi.copy(), f_lo.copy(), f_hi.copy()
    # the second-nearest evaluated point on each side, NaN while there is none
    s2, t2, fs2, ft2 = (np.full_like(lo, np.nan) for _ in range(4))
    for _ in range(_MAX_ITER):
        i = np.flatnonzero(chord & (t - s > _TOL))
        if not i.size:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            u = s[i] - fs[i] * (t[i] - s[i]) / (ft[i] - fs[i])
            v = np.fmin(
                np.where(fs[i] > fs2[i], s[i] - fs[i] * (s[i] - s2[i]) / (fs[i] - fs2[i]), np.nan),
                np.where(ft2[i] > ft[i], t[i] - ft[i] * (t2[i] - t[i]) / (ft2[i] - ft[i]), np.nan))
        u = np.clip(u, s[i] + step, t[i] - 2 * step)
        v = np.where(np.isnan(v), u + step, np.clip(v, u + step, t[i] - step))
        m = f(np.concatenate((u, v)), np.concatenate((i, i))).margin
        fu, fv = m[:i.size], m[i.size:]
        low_u, low_v = fu <= 0.0, fv <= 0.0
        s[i], fs[i], s2[i], fs2[i] = np.where(low_v, (v, fv, u, fu), np.where(
            low_u, (u, fu, s[i], fs[i]), (s[i], fs[i], s2[i], fs2[i])))
        t[i], ft[i], t2[i], ft2[i] = np.where(~low_u, (u, fu, v, fv), np.where(
            ~low_v, (v, fv, t[i], ft[i]), (t[i], ft[i], t2[i], ft2[i])))
        bad = i[~low_u & low_v]
        s[bad], t[bad], chord[bad] = lo[bad], hi[bad], False
    return s, t


def _bisect_margin(f, lo: np.ndarray, hi: np.ndarray,
                   convex: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Root of each row of a batch of margin functions on [lo, hi].

    ``f(t, rows)`` maps one scanned weight for each row indexed by `rows`
    to the criterion's `Margins` there; rows may differ in k.  Returns
    (root, residual) arrays, row by row:

    - not certified at hi: root NaN (no detection), residual f(hi);
    - certified at lo: root lo, residual f(lo);
    - otherwise the bracket is halved until it is at most `_TOL` wide (or
      `_MAX_ITER` times); root is its midpoint, residual f(root).

    A step evaluates `f` on the live rows only, whose bracket is still
    wider than `_TOL`, and moves their ends in place; a row's margin has the
    bits of a one-row call, so skipping converged rows moves no root.

    The endpoints use the certificate rule (`Margins.detected`): they
    decide whether the slice holds a detection at all.  Inside the bracket
    the loop tests the sign of the margin, because it locates the margin's
    zero, the edge of the detected region; testing against the rounding
    allowance there would move every root by an amount set by the
    allowance, not by the criterion.

    Two stages.  With `convex` (the evaluator's `convex` attribute, which
    `_slice_thresholds` passes: true for T1 and summed T2), a row to bisect
    whose f(lo) <= 0 first gets a bracket of evaluated points s < t,
    f(s) <= 0 < f(t), narrowed to at most `_TOL` by a few batched chord
    steps (`_chord_bracket`).  The halving then runs as before, except that
    it asks `f` only about midpoints strictly inside (s, t).  By convexity
    a midpoint at or below s has f <= max(f(lo), f(s)) <= 0, so it raises
    the low end, and one at or above t has f >= f(t) > 0, because f rises
    past t when f(lo) <= 0 < f(t), so it lowers the high end.  Every
    midpoint, root and residual is therefore plain bisection's.  A skipped
    sign could differ from an evaluated one only where rounding bends the
    computed margin off convexity: at a midpoint within rounding distance
    of the zero, where plain bisection's own sign is rounding noise.  Rows
    of a margin that is not convex (the per-tuple k = 1 variant) and rows
    with f(lo) > 0 that is not certified skip the chord stage: their
    bracket stays [lo, hi], and every midpoint is evaluated.

    Without `convex` a single crossing is assumed, not checked; a convex
    margin at most 0 at lo and positive at hi crosses zero exactly once.
    A margin certified at lo is reported as detected on the whole slice,
    although a convex margin positive at both ends can still dip below
    zero between them.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    every = np.arange(a.size)
    at_hi = f(b, every)
    at_lo = f(a, every)
    bisect = at_hi.detected & ~at_lo.detected
    root = np.where(at_hi.detected, a, np.nan)
    residual = np.where(at_hi.detected, at_lo.margin, at_hi.margin)
    s, t = _chord_bracket(f, a, b, at_lo.margin, at_hi.margin,
                          bisect & (at_lo.margin <= 0.0) & convex)
    for _ in range(_MAX_ITER):
        live = np.flatnonzero(bisect & (b - a > _TOL))
        if not live.size:
            break
        mid = 0.5 * (a[live] + b[live])
        up = mid >= t[live]
        ask = np.flatnonzero((s[live] < mid) & ~up)
        if ask.size:
            up[ask] = f(mid[ask], live[ask]).margin > 0.0
        b[live[up]] = mid[up]
        a[live[~up]] = mid[~up]
    rows = np.flatnonzero(bisect)
    if rows.size:
        root[rows] = 0.5 * (a[rows] + b[rows])
        residual[rows] = f(root[rows], rows).margin
    return root, residual


def _slice_thresholds(fm: FamilyMargin, k, fixed: np.ndarray,
                      axis: int) -> tuple[np.ndarray, np.ndarray]:
    """(root, residual) of the margin along one family parameter, for each
    row of a (B, n_signals - 1) batch of fixed weights, at one k or at
    one k per row (an int array).

    The scanned weight is inserted at column `axis` and bisected over
    [0, 1 - sum(row)] for all rows at once (see `_bisect_margin`).  An empty
    slice (1 - sum(row) <= 0) has root NaN and residual NaN.
    """
    hi = 1.0 - fixed.sum(axis=1)
    empty = hi <= 0.0
    params = np.insert(fixed, axis, 0.0, axis=1)
    k = np.broadcast_to(k, hi.shape)

    def f(t: np.ndarray, rows: np.ndarray) -> Margins:
        at = params[rows]
        at[:, axis] = t
        return fm.margins(at, k[rows])

    root, residual = _bisect_margin(f, np.zeros_like(hi), np.where(empty, 0.0, hi),
                                    convex=fm.evaluator.convex)
    return np.where(empty, np.nan, root), np.where(empty, np.nan, residual)


def bisection_threshold(
    family: NoiseFamily,
    evaluator,
    k: int,
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
    _check_count("axis", axis, 0, n_params - 1)
    component_weights(fixed)  # finite, nonnegative, summing to at most 1
    rows = np.asarray(fixed, dtype=float).reshape(1, -1)
    (root,), (residual,) = _slice_thresholds(FamilyMargin(family, evaluator), k, rows, axis)
    p_star = None if np.isnan(root) else float(root)
    return ThresholdResult(k=k, p_star=p_star, residual=float(residual))


def ghz_noise_closed_form(n: int, k: int) -> float:
    """Exact detection threshold of the subset-swap criterion with the GHZ
    probe preset on rho(p) = p |GHZ_n><GHZ_n| + (1-p) I/2^n.

    The margin vanishes at (2^{k+1}-2) p/2 = (2^n-2)(1-p)/2^n, i.e.
    p = c / (2^k - 1 + c) with c = (2^n - 2)/2^n.
    """
    _check_count("n", n, 2)  # with no dense cap: the closed forms serve any N
    _check_k(n, k)
    c = (2**n - 2) / 2**n
    return c / ((2**k - 1) + c)


def example2_closed_form(n: int, k: int, d: int) -> float:
    """Exact detection threshold of the site-probe criterion with the W
    probe preset on rho(p, 0) = p |W><W| + (1-p) I/d^n:

        N(d-1)(2N-k-2) / (k d^N + N(d-1)(2N-k-2)).
    """
    _check_count("n", n, 2)
    _check_count("d", d, 2)
    _check_k(n, k)
    num = n * (d - 1) * (2 * n - k - 2)
    return num / (k * d**n + num)


def ghz_threshold_table(n: int = 8) -> list[tuple[int, float, float | None]]:
    """(k, bisected threshold, comparison constant) for k = 1..n-1.

    The comparison column holds the published alternative-criterion values
    and is only available for the 8-qubit family.
    """
    family = ghz_noise_family(n)
    fm = FamilyMargin(family, Theorem1Evaluator(*ghz_probe(family.dims)))
    roots, _ = _slice_thresholds(fm, np.arange(1, n), np.empty((n - 1, 0)), 0)
    reference = COMPARISON_THRESHOLDS_8QUBIT if n == 8 else (None,) * (n - 1)
    return [(k, float(root), ref) for k, (root, ref) in enumerate(zip(roots, reference), 1)]


#: Boundary-scan probe -> (site-probe preset, index of the bisected weight).
_SCAN_PROBES = {"w": (w_probe, 0), "wtilde": (w_tilde_probe, 1)}


def _scan_probe(probe: str):
    """The (site-probe preset, index of the bisected weight) of `probe`."""
    if probe not in _SCAN_PROBES:
        raise ValueError(f"probe must be 'w' or 'wtilde', got {probe!r}")
    return _SCAN_PROBES[probe]


def pq_boundary_scan(n: int, d: int, k: int | Sequence[int], grid: int,
                     probe: str = "w") -> list[BoundaryPoint]:
    """Detection boundary of the site-probe criterion over the (p, q) simplex,
    at one k or at each k of a sequence (rows k-major, one family build).

    With ``probe="w"`` the scan bisects the W-signal weight p along q
    gridlines j/grid, j = 0..grid; ``probe="wtilde"`` uses the mirrored
    probe preset and bisects q along p gridlines (the natural
    parameterization of the mirrored detection region).  Gridlines with no
    crossing, and the empty slice at gridline 1, are recorded with
    ``star=None``.
    """
    qudits(n, d)  # the family's rules on n and d come first
    make_probe, axis = _scan_probe(probe)
    _check_count("grid", grid, 1)
    ks = np.atleast_1d(k)
    _check_k(n, ks)
    family = w_noise_family(n, d)
    fm = FamilyMargin(family, Theorem2Evaluator(*make_probe(family.dims)))
    # one bisection of every k's gridlines, one k per row, k-major
    g = np.tile(np.arange(grid + 1) / grid, ks.size)
    ks = np.repeat(ks, grid + 1)
    roots, residuals = _slice_thresholds(fm, ks, g[:, None], axis)
    return [BoundaryPoint(k, float(gl), None if np.isnan(r) else float(r), float(res))
            for k, gl, r, res in zip(ks.tolist(), g, roots, residuals)]


def _fmt(x: float | None) -> str:
    if x is None or np.isnan(x):
        return "none"
    return f"{x:.10g}"


def boundary_scan_csv(rows: Sequence[BoundaryPoint], probe: str = "w") -> str:
    """Deterministic CSV for the boundary rows of a `pq_boundary_scan` with
    `probe` (10 significant digits): the bisected weight names the star
    column, the other one the gridlines."""
    names = list(W_PARAMS)
    star = names.pop(_scan_probe(probe)[1])
    lines = [f"k,{names[0]},{star}_star,margin_residual"]
    for r in rows:
        lines.append(f"{r.k},{_fmt(r.gridline)},{_fmt(r.star)},{_fmt(r.residual)}")
    return "\n".join(lines) + "\n"


def threshold_table_csv(rows: Sequence[tuple[int, float, float | None]]) -> str:
    """Deterministic CSV for the GHZ threshold table."""
    lines = ["k,p_k,p_k_reference"]
    for k, p_k, ref in rows:
        lines.append(f"{k},{_fmt(p_k)},{_fmt(ref)}")
    return "\n".join(lines) + "\n"
