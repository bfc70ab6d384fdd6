"""Literal doubled-space evaluation of the two-copy trace expressions.

Only usable at small dimension (per-copy cap 64): rho (x) rho and the
doubled operators are assembled explicitly, so this is the slow reference
that referees the trace bundles the criteria read: every factorized value
it compares is a field of `Theorem1Evaluator.traces` or
`Theorem2Evaluator.traces`.

The adopted factor-exchange reading of the permutations is implemented
directly: the permutation is applied to the operator pair.  The rejected
matrix-product reading (a subsystem-swap matrix acting by multiplication)
would give <XX^dag><YY^dag> for a pure state and the full swap instead of
the left-hand-side value |<psi|Y X^dag|psi>|^2; `tests/test_oracle.py`
builds that matrix to show the discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection

import numpy as np

from .config import ORACLE_DIM_CAP, ORACLE_TOL
from .criteria import Theorem1Evaluator, Theorem2Evaluator, swap_on_subset
from .states import random_k_unentangled_terms, random_mixed_state, random_product_operator
from .tensor import DensityMatrix, ProductOperator, SiteDims, _check_count, assemble

__all__ = [
    "doubled_term",
    "doubled_lhs",
    "verify_proof_chain",
    "factorization_check",
    "oracle_check",
    "ProofChainReport",
    "StepResult",
]


def _two_copies(rho: DensityMatrix) -> np.ndarray:
    if rho.dims.total_dim > ORACLE_DIM_CAP:
        raise ValueError(
            f"dimension {rho.dims.total_dim} exceeds the oracle per-copy cap {ORACLE_DIM_CAP}"
        )
    return np.kron(rho.mat, rho.mat)


def doubled_term(
    rho: DensityMatrix,
    x: ProductOperator,
    y: ProductOperator,
    alpha: Collection[int],
) -> complex:
    """Tr[(X^dag x Y^dag) P_a^dag rho^(x2) P_a (X x Y)] assembled literally,
    for a collection alpha of 1-based sites.

    The permutation is applied to the operator pair first: the value is
    Tr[(A^dag x B^dag) rho^(x2) (A x B)] for (A, B) = swap_on_subset(x, y, alpha).
    """
    rr = _two_copies(rho)
    a, b = swap_on_subset(x, y, alpha)
    m = np.kron(assemble(a), assemble(b))
    # Tr[M^dag RR M] evaluated as <M, RR M> to save one big matmul
    return complex(np.einsum("ij,ij->", m.conj(), rr @ m))


def doubled_lhs(rho: DensityMatrix, x: ProductOperator, y: ProductOperator) -> complex:
    """Left-hand-side two-copy trace Tr[(X^dag x Y^dag) rho^(x2) P (X x Y)].

    Under the adopted reading P(X x Y) = Y x X, so the value equals
    Tr[(X^dag x Y^dag) rho^(x2) (Y x X)] = |Tr[X^dag rho Y]|^2.
    """
    rr = _two_copies(rho)
    left = np.kron(assemble(x).conj().T, assemble(y).conj().T)
    right = np.kron(assemble(y), assemble(x))
    return complex(np.einsum("ij,ji->", left, rr @ right))


# --------------------------------------------------------------------------
# Numerical verification of the proof chain behind both criteria.
# --------------------------------------------------------------------------


@dataclass
class StepResult:
    trials: int = 0
    failures: int = 0
    worst_slack: float = float("inf")

    def record(self, slack: float, *sides: float) -> None:
        """Record `slack` relative to the larger of 1 and the compared sides."""
        slack /= max((1.0, *sides))
        self.trials += 1
        self.worst_slack = min(self.worst_slack, slack)
        if slack < -ORACLE_TOL:
            self.failures += 1


@dataclass
class ProofChainReport:
    steps: dict[str, StepResult] = field(default_factory=dict)

    def step(self, name: str) -> StepResult:
        return self.steps.setdefault(name, StepResult())

    @property
    def passed(self) -> bool:
        return all(s.failures == 0 for s in self.steps.values())

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tolerance": ORACLE_TOL,
            "steps": {
                name: {
                    "trials": s.trials,
                    "failures": s.failures,
                    "worst_slack": s.worst_slack,
                }
                for name, s in self.steps.items()
            },
        }


def factorization_check(trials: int = 50, seed: int = 0) -> dict:
    """Compare doubled-space values against the trace bundles the criteria
    read (`Theorem1Evaluator.traces`, `Theorem2Evaluator.traces`).

    For each (N, d) shape, (2, 2), (2, 3) and (3, 2), runs `trials` random
    instances and records the worst relative deviation between:

    - the subset term Tr[(A^dag x B^dag) rho^(x2) (A x B)] and
      subset[mask] * subset[full ^ mask],
    - the global left-hand side and |cross|^2,
    - the site-probe terms (substituted pair, squared single sandwich and
      cross) and base * pair, site^2 and |cross|^2.
    """
    _check_count("trials", trials, 1)  # so that no check passes vacuously
    rng = np.random.default_rng(seed)
    worst = 0.0
    count = 0
    for n, d in ((2, 2), (2, 3), (3, 2)):
        dims = SiteDims((d,) * n)
        full = (1 << n) - 1
        for _ in range(trials):
            rho = random_mixed_state(dims, rng, rank=int(rng.integers(1, 4)))
            x = random_product_operator(dims, rng)
            y = random_product_operator(dims, rng)
            mask = int(rng.integers(0, 1 << n))
            alpha = {i + 1 for i in range(n) if mask >> i & 1}
            # site-probe forms: one random (i, j, s, t) tuple per instance
            omegas = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))]
            t1 = Theorem1Evaluator(x, y).traces(rho)
            t2 = Theorem2Evaluator(x, omegas).traces(rho)
            i, j = (int(v) for v in rng.permutation(n)[:2])
            x_i = x.replace_factor(i + 1, omegas[0])
            x_j = x.replace_factor(j + 1, omegas[0])
            # (literal doubled-space value, factorized value)
            for lit, fac in (
                (doubled_term(rho, x, y, alpha), t1.subset[mask] * t1.subset[full ^ mask]),
                (doubled_lhs(rho, x, y), abs(t1.cross) ** 2),
                (doubled_term(rho, x_i, x_j, {i + 1}), t2.base * t2.pair[0, 0, i, j]),
                (doubled_term(rho, x_i, x_i, set()), t2.site[0, i] ** 2),
                (doubled_lhs(rho, x_i, x_j), abs(t2.cross[0, 0, i, j]) ** 2),
            ):
                worst = max(worst, abs(lit - fac) / max(1.0, abs(fac)))
            count += 1
    return {
        "trials": count,
        "worst_relative_error": worst,
        "tolerance": ORACLE_TOL,
        "passed": bool(worst <= ORACLE_TOL),
    }


def oracle_check(trials: int = 50, seed: int = 0) -> dict:
    """Full oracle report: factorization equivalence plus proof chain."""
    fact = factorization_check(trials, seed)
    chain = verify_proof_chain(max(trials, 50), seed + 1)
    return {
        "factorization": fact,
        "proof_chain": chain.to_dict(),
        "passed": bool(fact["passed"] and chain.passed),
    }


def verify_proof_chain(n_trials: int = 100, seed: int = 0) -> ProofChainReport:
    """Numerically check every chained inequality behind both criteria, on
    three qubits, from the criteria's own trace bundles.

    Steps (rel-scaled slack must stay >= -ORACLE_TOL):

    - t1-mixture-triangle: |Tr[X^dag rho Y]| <= sum_m p_m |Tr[X^dag rho_m Y]|
    - t1-pure-bound: the subset-swap inequality on pure states with >= k
      unentangled particles
    - t1-cauchy-schwarz: per subset, sum_m p_m sqrt(a_m b_m) <=
      sqrt(sum p a * sum p b)
    - t2-mixture-triangle / t2-pure-bound / t2-cauchy-schwarz: the
      site-probe analogues (pure bound checked for k' = 1..k only: the
      criterion may rightly fire at k' > k)
    """
    _check_count("trials", n_trials, 1)
    dims = SiteDims((2, 2, 2))
    rng = np.random.default_rng(seed)
    report = ProofChainReport()
    n = dims.n
    full = (1 << n) - 1
    mm = np.eye(dims.total_dim) / dims.total_dim

    for trial in range(n_trials):
        k = int(rng.integers(1, n))
        terms = int(rng.integers(1, 5))
        weights, amplitudes = random_k_unentangled_terms(dims, k, terms, rng)
        mats = [np.outer(v, v.conj()) for v in amplitudes]
        if trial % 10 == 9:
            # near-degenerate stress case: rank-1 dominated mixture
            weights = [1.0 - 1e-13, 1e-13]
            mats = [mats[0], mm]
        else:
            weights = weights.tolist()
        mixed = sum(w * m for w, m in zip(weights, mats))
        components = [DensityMatrix(dims, m, _check_psd=False) for m in mats]
        rho = DensityMatrix(dims, mixed, _check_psd=False)

        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)
        omegas = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                  for _ in range(int(rng.integers(1, 3)))]

        # per criterion: the pure-bound ks, and the (a, b) pairs whose
        # sqrt(a b) its rhs sums (T1: three subsets and their complements)
        for name, ev, ks, pairs in (
            ("t1", Theorem1Evaluator(x, y), [k],
             lambda t: [(t.subset[m], t.subset[full ^ m]) for m in (1, full - 1, full >> 1)]),
            ("t2", Theorem2Evaluator(x, omegas), range(1, k + 1), lambda t: [(t.base, t.pair)]),
        ):
            mixed_tr, *comp_tr = (ev.traces(r) for r in (rho, *components))

            lhs = float(np.sum(np.abs(mixed_tr.cross)))
            tri = sum(w * float(np.sum(np.abs(t.cross))) for w, t in zip(weights, comp_tr))
            report.step(f"{name}-mixture-triangle").record(tri - lhs, lhs, tri)

            for rep in ev.reports(comp_tr[0], ks):
                # the compared sides: scaled lhs (rhs + margin) and rhs
                report.step(f"{name}-pure-bound").record(-rep.margin, rep.rhs + rep.margin, rep.rhs)

            for per_comp in zip(*map(pairs, comp_tr)):
                lhs_cs = sum(
                    w * np.sqrt(np.maximum(a, 0.0) * np.maximum(b, 0.0))
                    for w, (a, b) in zip(weights, per_comp)
                )
                mixed_a, mixed_b = (sum(w * v[c] for w, v in zip(weights, per_comp)) for c in (0, 1))
                rhs_cs = np.sqrt(np.maximum(mixed_a, 0.0) * np.maximum(mixed_b, 0.0))
                report.step(f"{name}-cauchy-schwarz").record(
                    float(np.min(rhs_cs - lhs_cs)), float(np.max(lhs_cs)), float(np.max(rhs_cs))
                )

    return report
