"""Detection criteria for states with fewer than k unentangled particles.

Two inequalities are evaluated, both built from single-copy traces of a
density matrix against product operators:

* **Theorem 1** (subset-swap form): for probes X = x_1 x..x x_N and
  Y = y_1 x..x y_N,

      (2^{k+1} - 2) |Tr[X^dag rho Y]|
          <= sum_alpha sqrt( Tr[rho A_alpha A_alpha^dag]
                           * Tr[rho B_alpha B_alpha^dag] ),

  where alpha runs over the nonempty proper subsets of {1..N} and
  (A_alpha, B_alpha) carry y-factors on alpha / x-factors elsewhere and
  vice versa.  A state containing at least k unentangled particles
  satisfies the inequality, so a positive margin certifies fewer than k.

* **Theorem 2** (site-probe form, equal local dimensions): a base probe
  X and a set omega = {w_1..w_T} of single-site operators define
  X_i^s (w_s substituted at site i) and X_ij^st (two substitutions).
  The summed inequality compares sum |Tr[(X_i^s)^dag rho X_j^t]| against
  factorized bounds; see `Theorem2Evaluator`.  Valid for 1 <= k <= N-1.

Permutation convention
----------------------
Formally both criteria arise from two-copy expressions
Tr[(. x .) P_alpha^dag rho^(x2) P_alpha (. x .)].  This library reads
P_alpha as the *factor-exchange action*: it swaps the per-site operator
factors on alpha between the two copies.  Under that reading every
two-copy trace factorizes exactly into the single-copy traces used here
(the `oracle` module verifies this numerically).  The rejected
matrix-product reading, a subsystem-swap matrix acting by multiplication,
disagrees: only the factor-exchange action reproduces the pure-state
value |<psi|Y X^dag|psi>|^2 for the left-hand side.

The k = 1 special form (`Theorem2K1Evaluator`) checks the per-tuple
inequality |Tr[(X_i^s)^dag rho X_j^t]|^2 <= Tr[rho XX^dag] *
Tr[rho X_ij^st (X_ij^st)^dag].  Caution: that per-tuple bound is only
guaranteed when sites i and j end up in different blocks of the
witnessing partition, so unlike the summed form (`Theorem2Evaluator`,
sound for k = 1) it can fire on states that do contain one unentangled
particle.
It is the sharper choice on fully product states; threshold scans use
the summed form for k = 1.

Both criteria depend on k through one scalar only: T1 scales its lhs by
2^{k+1} - 2 and T2 its site sum by T (N - k - 1).  So `reports(traces,
ks)` evaluates a criterion at every k of ks in one pass, and the terms a
report lists, the same at every k, are computed once and shared by the
reports; `report(traces, k)` is its case of one k.

Evaluators build their probe operators once, at construction, so `traces`
runs state kernels only.  T2 splits at its pair blocks: a rho stage (one
`tensor.pair_blocks` call) and an omega stage that never reads the state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Collection, Iterable, NamedTuple, Sequence

import numpy as np

from .config import DETECTION_TOL, SUBSET_BUDGET, summation_gamma
from .states import Mixture, _check_k
from .tensor import (
    ProductOperator,
    SiteDims,
    State,
    _frozen_complex,
    pair_blocks,
    product_trace,
    subset_trace_sweep,
)

__all__ = [
    "CriterionReport",
    "Margins",
    "certified",
    "swap_on_subset",
    "Theorem1Evaluator",
    "Theorem2Evaluator",
    "Theorem2K1Evaluator",
    "Theorem1Traces",
    "Theorem2Traces",
    "ghz_probe",
    "w_probe",
    "w_tilde_probe",
]


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one criterion evaluation.

    `margin` is scaled-LHS minus RHS; positive margin (beyond the detection
    tolerance) certifies that the state contains fewer than k unentangled
    particles.  `degenerate` warns that a probe operator was identically
    zero, making the inequality trivial.
    """

    theorem: str
    k: int
    lhs: float
    rhs: float
    margin: float
    detected: bool
    terms: tuple[tuple[str, float], ...] = ()
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "k": self.k,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "detected": self.detected,
            "degenerate": self.degenerate,
            "terms": [{"label": label, "value": value} for label, value in self.terms],
        }


def swap_on_subset(
    x: ProductOperator, y: ProductOperator, alpha: Collection[int]
) -> tuple[ProductOperator, ProductOperator]:
    """Exchange the factors of x and y on alpha, a collection of 1-based
    sites (integers in 1..N; the empty set exchanges nothing).

    Returns (A, B) where A carries y's factors on alpha and x's elsewhere,
    and B the reverse.
    """
    if x.dims.dims != y.dims.dims:
        raise ValueError("x and y must share site dimensions")
    n = x.dims.n
    alpha = set(alpha)
    if not all(map(x.dims.is_site, alpha)):
        raise ValueError(f"subset {alpha} out of range 1..{n}")
    a_factors = tuple(y.factors[i] if i + 1 in alpha else x.factors[i] for i in range(n))
    b_factors = tuple(x.factors[i] if i + 1 in alpha else y.factors[i] for i in range(n))
    return ProductOperator(x.dims, a_factors), ProductOperator(x.dims, b_factors)


# --------------------------------------------------------------------------
# Trace bundles: every quantity a criterion needs, as plain arrays that are
# linear in rho.  Evaluating a criterion along a noise family then reduces
# to weighted sums of per-component bundles (see `thresholds`).  A bundle's
# fields may carry a leading batch axis, one entry per mixture (`combine`);
# each theorem has one vectorised margin formula (`_evaluate`) that serves a
# whole batch, the single-bundle `report` and a family's distinct columns
# alike (`_gather`).
# --------------------------------------------------------------------------


def _combine(bundles: Sequence, weights):
    """Bundle of the mixture with one weight per bundle, or of each row of a
    (B, len(bundles)) batch of weights.  The class's `_kept` fields come from
    the first bundle; each of the `_mixed` fields that follow them is
    sum_c weights[..., c] * bundles[c].name, added left to right from 0,
    with the weights' leading axes (none, or (B,)) leading."""
    first = bundles[0]
    w = np.asarray(weights, dtype=float)
    fields = [getattr(first, name) for name in first._kept]
    for name in first._mixed:
        pad = (...,) + (None,) * np.ndim(getattr(first, name))
        fields.append(sum(w[..., c][pad] * getattr(b, name) for c, b in enumerate(bundles)))
    return type(first)(*fields)


def _gather(values: np.ndarray, inverse: np.ndarray | None, order=slice(None)) -> np.ndarray:
    """Entries `order` (flat indices into the field; all by default) of a
    field from its per-column `values` (..., columns).  A plain bundle's
    columns are its entries (`inverse` None); a family's are its distinct
    ones (`thresholds.FamilyMargin`), `inverse` holding each entry's column."""
    if inverse is not None:
        order = inverse.reshape(-1)[order]
    if isinstance(order, slice):
        return values[..., order]
    # take, not fancy indexing: its rows come out contiguous, so np.sum
    # adds each pairwise, whatever the batch
    return values.take(order, axis=-1)


@dataclass(frozen=True, eq=False)
class Theorem1Traces:
    """cross = Tr[X^dag rho Y]; subset[mask] = Tr[rho W_mask W_mask^dag]
    where W_mask carries y-factors on the sites whose bit is set."""

    n: int
    cross: complex | np.ndarray
    subset: np.ndarray

    _kept = ("n",)
    _mixed = ("cross", "subset")
    combine = staticmethod(_combine)


@dataclass(frozen=True, eq=False)
class Theorem2Traces:
    """All single-copy traces entering the site-probe inequality.

    cross[s, t, i, j] = Tr[(X_i^s)^dag rho X_j^t]          (i != j, 0-based)
    pair[s, t, i, j]  = Tr[rho X_ij^st (X_ij^st)^dag]
    site[s, i]        = Tr[rho X_i^s (X_i^s)^dag]
    base              = Tr[rho X X^dag]
    """

    n: int
    n_omega: int
    cross: np.ndarray
    pair: np.ndarray
    site: np.ndarray
    base: float | np.ndarray

    _kept = ("n", "n_omega")
    _mixed = ("cross", "pair", "site", "base")
    combine = staticmethod(_combine)


class Margins(NamedTuple):
    """Criterion values over a batch of bundles, one entry per bundle (0-d
    arrays for a single bundle).  `lhs` and `rhs` are the sides a
    `CriterionReport` shows, `margin` is scaled lhs minus rhs, and
    `detected` is the certificate rule applied to it (`certified`)."""

    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    detected: np.ndarray


def certified(margin, scale, terms: int, dim: int):
    """The certificate rule: margin > detection + gamma_m * scale.

    `scale` is the larger of the two compared sides (T1 compares its lhs
    scaled by 2^{k+1} - 2).  gamma_m (`config.summation_gamma`) bounds the
    relative rounding error of a sum of m = terms + dim values: the
    criterion sums `terms` terms, each built from traces over a
    `dim`-dimensional space.  A margin that rounding alone could produce
    certifies nothing, whatever the probe norms or N: where the criterion
    holds with equality (x = y at k = N-1 makes T1 an identity), rounding
    crosses any absolute tolerance once the probe norms are large.
    """
    gamma = summation_gamma(terms + dim)
    return margin > DETECTION_TOL + gamma * scale


@lru_cache(maxsize=64)
def _tuple_layout(n: int, big_t: int) -> tuple[np.ndarray, ...]:
    """Read-only (rows, cols, listed, summed) of the T2 tuples: the pairs
    i < j in np.triu_indices order, the order pair blocks are stacked, then
    the flat indices of the T^2 n(n-1) i != j entries of a (T, T, n, n)
    block in (s, t, i, j) order, as a report lists them, and with (i, j)
    outermost, as it sums them: a boolean-indexed block's memory order,
    which a whole-block np.sum has always followed, so values keep their bits."""
    flat = np.arange(big_t * big_t * n * n).reshape(big_t, big_t, n, n)
    flat = flat[..., ~np.eye(n, dtype=bool)]
    layout = (*np.triu_indices(n, 1), flat.reshape(-1), np.moveaxis(flat, -1, 0).reshape(-1))
    for a in layout:
        a.setflags(write=False)
    return layout


@lru_cache(maxsize=64)
def _subset_labels(n: int) -> tuple[str, ...]:
    """Labels alpha={sites} of the nonempty proper subsets, in mask order."""
    return tuple(
        "alpha={" + ",".join(str(i + 1) for i in range(n) if mask >> i & 1) + "}"
        for mask in range(1, (1 << n) - 1)
    )


@lru_cache(maxsize=64)
def _tuple_labels(kind: str, n: int, big_t: int) -> tuple[str, ...]:
    """Labels kind[s=..,t=..,i=..,j=..] of the (s, t, i, j) tuples, i != j,
    in the order listed."""
    return tuple(
        f"{kind}[s={s + 1},t={t + 1},i={i + 1},j={j + 1}]"
        for s in range(big_t)
        for t in range(big_t)
        for i in range(n)
        for j in range(n)
        if i != j
    )


@lru_cache(maxsize=64)
def _t2_term_labels(n: int, big_t: int) -> tuple[str, ...]:
    """Labels of the per-tuple and per-site terms a T2 report lists after
    its four sums, cross then pair for each tuple, then site[s=..,i=..]."""
    cross, pair = _tuple_labels("cross", n, big_t), _tuple_labels("pair", n, big_t)
    return tuple(label for both in zip(cross, pair) for label in both) + tuple(
        f"site[s={s + 1},i={i + 1}]" for s in range(big_t) for i in range(n)
    )


class _Criterion:
    """What both criteria share; a subclass supplies one component's bundle
    (`_traces`), the formula over one bundle or a batch (`_evaluate`,
    `Margins` first) and the labelled terms of its reports (`_terms`)."""

    theorem: str
    dims: SiteDims
    degenerate: bool
    #: Whether the margin is convex along a line of mixing weights, as it
    #: is for the summed criteria; threshold scans narrow their bisection
    #: by it (`thresholds._bisect_margin`).
    convex = True

    def traces(self, rho: State | Mixture):
        """Bundle of a dense, pure or white-noise state (`tensor.State`), or
        of a `Mixture`: the weighted sum of its components' bundles."""
        if rho.dims.dims != self.dims.dims:
            raise ValueError(f"state dims {rho.dims.dims} do not match probe dims {self.dims.dims}")
        if isinstance(rho, Mixture):
            bundles = [self._traces(c) for c in rho.components]
            return type(bundles[0]).combine(bundles, rho.weights)
        return self._traces(rho)

    def ks(self) -> list[int]:
        """Every k the criterion is defined for, which `eval` reports by default: 1..N-1."""
        return list(range(1, self.dims.n))

    def margins(self, traces, k: int, inverse: dict | None = None) -> Margins:
        """`inverse`: each field's entry->column map (`_gather`); none for a plain bundle."""
        self._check(traces.n, k)
        return self._evaluate(traces, k, inverse)[0]

    def evaluate(self, rho: State | Mixture, k: int) -> CriterionReport:
        return self.report(self.traces(rho), k)

    def report(self, traces, k: int) -> CriterionReport:
        return self.reports(traces, [k])[0]

    def reports(self, traces, ks: Iterable[int]) -> list[CriterionReport]:
        """One report per k of `ks`, from one evaluation at all of them:
        the criteria depend on k through one scalar, so every term a
        report lists, and each side that does not depend on k, is computed
        once and shared by the reports."""
        checked = []
        for k in ks:
            self._check(traces.n, k)
            checked.append(int(k))
        # one k goes in as an int: numpy scalars compute faster than 1-entry arrays
        k = checked[0] if len(checked) == 1 else np.array(checked, dtype=int)
        m, *parts = self._evaluate(traces, k)
        # a side that does not depend on k (or of the one k) is 0-d, and shared
        sides = [a.tolist() if a.ndim else [cast(a)] * len(checked)
                 for cast, a in zip((float, float, float, bool), m)]
        return [
            CriterionReport(self.theorem, k, lhs, rhs, margin, detected, terms, self.degenerate)
            for k, lhs, rhs, margin, detected, terms
            in zip(checked, *sides, self._terms(traces, m, *parts))
        ]

    def _check(self, n: int, k) -> None:
        """Reject a k, or an int array of one k per row, that the criterion
        is not defined for: by default any but an integer in 1..N-1."""
        _check_k(n, k)


class Theorem1Evaluator(_Criterion):
    """Subset-swap criterion for a fixed probe pair (X, Y)."""

    theorem = "T1"

    def __init__(self, x: ProductOperator, y: ProductOperator):
        if x.dims.dims != y.dims.dims:
            raise ValueError("x and y must share site dimensions")
        if x.dims.n > SUBSET_BUDGET:
            raise ValueError(
                f"N={x.dims.n} exceeds the subset enumeration budget {SUBSET_BUDGET}"
            )
        self.x = x
        self.y = y
        self.dims = x.dims
        self.degenerate = x.is_zero() or y.is_zero()
        # the probe side of every trace: per site the sweep's pair
        # (x x^dag, y y^dag), and y x^dag, the factor of Tr[X^dag rho Y]
        self._pairs = [(fx @ fx.conj().T, fy @ fy.conj().T) for fx, fy in zip(x.factors, y.factors)]
        self._cross = [fy @ fx.conj().T for fx, fy in zip(x.factors, y.factors)]

    # bound here too: the benchmark tracer wraps `traces` and `report` in
    # each class's own __dict__
    traces, report = _Criterion.traces, _Criterion.report

    def _traces(self, rho: State) -> Theorem1Traces:
        subset = subset_trace_sweep(rho, self._pairs).real
        return Theorem1Traces(self.dims.n, product_trace(rho, self._cross), subset)

    def _evaluate(self, traces: Theorem1Traces, k, inverse=None) -> tuple[Margins, np.ndarray]:
        n = traces.n
        full = (1 << n) - 1
        at = (inverse or {}).get
        clamped = np.maximum(traces.subset, 0.0)
        # term of mask m (1 <= m < full) pairs subset[m] with its complement
        terms = np.sqrt(_gather(clamped, at("subset"), slice(1, full))
                        * _gather(clamped, at("subset"), slice(full - 1, 0, -1)))
        # np.hypot gives the bits of abs() on a Python complex; np.abs differs
        lhs = np.hypot(traces.cross.real, traces.cross.imag)
        # a running sum adds the terms in mask order, one at a time; np.sum
        # adds pairwise and would move the last bits of every margin
        rhs = terms.cumsum(axis=-1)[..., -1]
        scaled = (2 ** (k + 1) - 2) * lhs
        margin = scaled - rhs
        detected = certified(margin, np.maximum(scaled, rhs), full - 1, self.dims.total_dim)
        return Margins(lhs, rhs, margin, detected), terms

    def _terms(self, traces: Theorem1Traces, m: Margins, terms: np.ndarray):
        """Every k's report lists the same subset terms: one tuple, shared."""
        return repeat(tuple(zip(_subset_labels(traces.n), terms.tolist())))


class Theorem2Evaluator(_Criterion):
    """Site-probe criterion for a base probe X and substitution set omega."""

    theorem = "T2"

    def __init__(self, x: ProductOperator, omegas: Sequence[np.ndarray]):
        d = x.dims.uniform()
        if len(omegas) < 1:
            raise ValueError("omega must contain at least one operator")
        self.omegas = tuple(_frozen_complex(w, (d, d), f"omega[{i}]") for i, w in enumerate(omegas))
        self.x = x
        self.dims = x.dims
        self.d = d
        self.degenerate = x.is_zero() or all(not w.any() for w in self.omegas)
        # the probe side of every trace: x_m x_m^dag, w_s w_s^dag and the factors
        # next to a substitution, sub[s, m] = x_m w_s^dag and sup[t, m] = w_t x_m^dag
        # (Tr[(X_i^s)^dag rho X_j^t] carries sub[s, i] at site i, sup[t, j] at site j)
        xs, om = np.array(x.factors), np.array(self.omegas)
        xs_dag, om_dag = xs.conj().transpose(0, 2, 1), om.conj().transpose(0, 2, 1)
        self._baseline, self._omega_proj = xs @ xs_dag, om @ om_dag
        self._sub, self._sup = xs[None] @ om_dag[:, None], om[:, None] @ xs_dag[None]

    # bound here too: the benchmark tracer wraps `traces` and `report` in
    # each class's own __dict__
    traces, report = _Criterion.traces, _Criterion.report

    def _traces(self, rho: State) -> Theorem2Traces:
        return self._omega_stage(pair_blocks(rho, self._baseline))  # the rho stage

    def _omega_stage(self, blocks: np.ndarray) -> Theorem2Traces:
        """The bundle from the pair blocks R[p, a_i, a_j, b_i, b_j] of a state against x x^dag
        (`tensor.pair_blocks`, pairs i < j in np.triu_indices order), by contractions with the
        probe operators alone: Tr[R (g_i x g_j)] = sum R g_i[b_i, a_i] g_j[b_j, a_j]."""
        n, d, big_t = self.dims.n, self.d, len(self.omegas)
        baseline, omega_proj, sub, sup = self._baseline, self._omega_proj, self._sub, self._sup
        rows, cols, _, _ = _tuple_layout(n, big_t)
        reduced = blocks.reshape(-1, d, d, d, d)
        cross = np.zeros((big_t, big_t, n, n), dtype=complex)
        cross[:, :, rows, cols] = np.einsum("pwxyz,spyw,tpzx->stp", reduced,
                                            sub[:, rows], sup[:, cols])
        # cross[s, t, j, i] carries sup[t, i] at site i and sub[s, j] at site j
        cross[:, :, cols, rows] = np.einsum("pwxyz,tpyw,spzx->stp", reduced,
                                            sup[:, rows], sub[:, cols])
        pair_ij = np.einsum("pwxyz,syw,tzx->stp", reduced, omega_proj, omega_proj).real
        pair = np.zeros((big_t, big_t, n, n))
        pair[:, :, rows, cols] = pair_ij
        pair[:, :, cols, rows] = pair_ij.transpose(1, 0, 2)

        # Single-site blocks R_i from the pairs (0, j), j = 1..n-1, which lead
        # the stack: contract the partner slot with its baseline factor.
        r_site = np.empty((n, d, d), dtype=complex)
        r_site[0] = np.einsum("aAbB,BA->ab", reduced[0], baseline[1])
        r_site[1:] = np.einsum("paAbB,ba->pAB", reduced[: n - 1], baseline[0])
        site = np.einsum("iab,sba->si", r_site, omega_proj).real
        base = float(np.einsum("ab,ba->", r_site[0], baseline[0]).real)
        return Theorem2Traces(n, big_t, cross, pair, site, base)

    def _tuples(self, traces: Theorem2Traces) -> tuple[np.ndarray, np.ndarray]:
        """Per column, |cross| and max(base, 0) * max(pair, 0): each tuple's two sides."""
        flat = (*np.shape(traces.base), -1)
        base = np.maximum(traces.base, 0.0)[..., None]
        return np.abs(traces.cross.reshape(flat)), base * np.maximum(traces.pair.reshape(flat), 0.0)

    def _evaluate(self, traces: Theorem2Traces, k, inverse=None):
        """Margins, the rhs pair and site sums, and per column the |cross|,
        sqrt(base * pair) and clamped site traces a report lists."""
        n, big_t = traces.n, traces.n_omega
        at, flat = (inverse or {}).get, (*np.shape(traces.base), -1)
        summed = _tuple_layout(n, big_t)[3]
        cross, pair = self._tuples(traces)
        pair = np.sqrt(pair)
        site = np.maximum(traces.site.reshape(flat), 0.0)
        lhs = np.sum(_gather(cross, at("cross"), summed), axis=-1)
        rhs_pairs = np.sum(_gather(pair, at("pair"), summed), axis=-1)
        rhs_sites = big_t * (n - k - 1) * np.sum(_gather(site, at("site")), axis=-1)
        rhs = rhs_pairs + rhs_sites
        margin = lhs - rhs
        n_terms = big_t * big_t * n * (n - 1) + big_t * n
        detected = certified(margin, np.maximum(lhs, rhs), n_terms, self.dims.total_dim)
        return Margins(lhs, rhs, margin, detected), rhs_pairs, rhs_sites, cross, pair, site

    def _terms(self, traces: Theorem2Traces, m: Margins, rhs_pairs, rhs_sites, cross, pair, site):
        """Each k's four sums, then the tuple and site terms, one tuple that
        every k's report shares."""
        listed = _tuple_layout(traces.n, traces.n_omega)[2]
        values = np.array((cross[listed], pair[listed])).T.reshape(-1).tolist() + site.tolist()
        shared = tuple(zip(_t2_term_labels(traces.n, traces.n_omega), values))
        lhs, pairs, base = float(m.lhs), float(rhs_pairs), max(float(traces.base), 0.0)
        return [(("lhs_sum", lhs), ("rhs_pair_sum", pairs), ("rhs_site_sum", sites),
                 ("base", base)) + shared for sites in np.ravel(rhs_sites).tolist()]


class Theorem2K1Evaluator(Theorem2Evaluator):
    """Per-tuple k = 1 variant of the site-probe criterion: its margin is
    the largest tuple margin; see the module docstring caveat."""

    theorem = "T2_k1"
    convex = False  # |cross|^2 minus a product of affine traces, maximised over tuples

    def ks(self) -> list[int]:
        return [1]

    def report(self, traces: Theorem2Traces, k: int = 1) -> CriterionReport:
        return self.reports(traces, [k])[0]

    def _check(self, n: int, k) -> None:
        if np.asarray(k).dtype.kind not in "iu":
            _check_k(n, k)  # the integer rule of every criterion rejects it
        k = np.ravel(k)
        if np.any(k != 1):
            raise ValueError(f"the per-tuple variant is defined for k=1, got k={k[k != 1][0]}")

    def _evaluate(self, traces: Theorem2Traces, k, inverse=None) -> tuple[Margins, np.ndarray]:
        """Margins plus every tuple margin |cross|^2 - base * pair."""
        at, listed = (inverse or {}).get, _tuple_layout(traces.n, traces.n_omega)[2]
        cross, pair = self._tuples(traces)
        lhs = _gather(cross ** 2, at("cross"), listed)
        rhs = _gather(pair, at("pair"), listed)
        tuples = lhs - rhs
        # witness: the first largest tuple margin; lhs/rhs are reported for it
        best = np.argmax(tuples, axis=-1)[..., None]
        lhs_w, rhs_w, margin = (
            np.take_along_axis(a, best, axis=-1)[..., 0] for a in (lhs, rhs, tuples)
        )
        detected = certified(margin, np.maximum(lhs_w, rhs_w), lhs.shape[-1], self.dims.total_dim)
        return Margins(lhs_w, rhs_w, margin, detected), tuples

    def _terms(self, traces: Theorem2Traces, m: Margins, tuples: np.ndarray):
        """The witness tuple's margin, then every tuple margin."""
        labels = _tuple_labels("margin", traces.n, traces.n_omega)
        return repeat((("max_" + labels[int(np.argmax(tuples))], float(m.margin)),
                       *zip(labels, tuples.tolist())))


# --------------------------------------------------------------------------
# Probe presets
# --------------------------------------------------------------------------


def _ketbra(d: int, row: int, col: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[row, col] = 1.0
    return m


def ghz_probe(dims: SiteDims) -> tuple[ProductOperator, ProductOperator]:
    """Theorem-1 probes tuned to GHZ-like signals: x_i = |1><0|, y_i = |0><0|."""
    x = ProductOperator(dims, tuple(_ketbra(d, 1, 0) for d in dims.dims))
    y = ProductOperator(dims, tuple(_ketbra(d, 0, 0) for d in dims.dims))
    return x, y


def w_probe(dims: SiteDims) -> tuple[ProductOperator, list[np.ndarray]]:
    """Theorem-2 probes tuned to the W family: x_i = |0><0|,
    omega = {|s><0| : s = 1..d-1}."""
    d = dims.uniform()
    x = ProductOperator(dims, tuple(_ketbra(d, 0, 0) for _ in range(dims.n)))
    omegas = [_ketbra(d, s, 0) for s in range(1, d)]
    return x, omegas


def w_tilde_probe(dims: SiteDims) -> tuple[ProductOperator, list[np.ndarray]]:
    """Mirror of `w_probe` under the level-0/1 swap, tuned to the shifted
    W family: x_i = |1><1|, omega = {|0><1|} + {|s><1| : s = 2..d-1}.

    Conjugating every probe by the unitary that exchanges levels 0 and 1
    maps the W signal onto its shifted partner, so detection thresholds in
    the two noise weights mirror exactly.
    """
    d = dims.uniform()
    x = ProductOperator(dims, tuple(_ketbra(d, 1, 1) for _ in range(dims.n)))
    omegas = [_ketbra(d, 0, 1)] + [_ketbra(d, s, 1) for s in range(2, d)]
    return x, omegas
