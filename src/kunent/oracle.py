"""Literal doubled-space evaluation of the two-copy trace expressions.

Only usable at small dimension (per-copy cap 64): rho (x) rho and the
doubled operators are assembled explicitly, so this is the slow reference
path used to validate the factorized single-copy kernels in `criteria`.

The adopted factor-exchange reading of the permutations is implemented
directly: the permutation is applied to the operator pair.  The rejected
matrix-product reading (a subsystem-swap matrix acting by multiplication)
would give <XX^dag><YY^dag> for a pure state and the full swap instead of
the left-hand-side value |<psi|Y X^dag|psi>|^2; `tests/test_oracle.py`
builds that matrix to show the discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ORACLE_DIM_CAP
from .criteria import (
    PermutationAction,
    Theorem1Evaluator,
    Theorem2Evaluator,
    swap_on_subset,
)
from .states import random_k_unentangled_terms, random_mixed_state, random_product_operator
from .tensor import (
    DensityMatrix,
    ProductOperator,
    SiteDims,
    assemble,
    cross_trace,
    sandwich_trace,
)

__all__ = [
    "doubled_term",
    "doubled_lhs",
    "verify_proof_chain",
    "factorization_check",
    "oracle_check",
    "ProofChainReport",
    "StepResult",
]


def _check_oracle_cap(rho: DensityMatrix, cap: int) -> None:
    if rho.dims.total_dim > cap:
        raise ValueError(
            f"dimension {rho.dims.total_dim} exceeds the oracle per-copy cap {cap}"
        )


def doubled_term(
    rho: DensityMatrix,
    x: ProductOperator,
    y: ProductOperator,
    alpha: PermutationAction,
    *,
    cap: int = ORACLE_DIM_CAP,
) -> complex:
    """Tr[(X^dag x Y^dag) P_a^dag rho^(x2) P_a (X x Y)] assembled literally.

    The permutation is applied to the operator pair first: the value is
    Tr[(A^dag x B^dag) rho^(x2) (A x B)] for (A, B) = swap_on_subset(x, y, alpha).
    """
    _check_oracle_cap(rho, cap)
    rr = np.kron(rho.mat, rho.mat)
    a, b = swap_on_subset(x, y, alpha)
    m = np.kron(assemble(a), assemble(b))
    # Tr[M^dag RR M] evaluated as <M, RR M> to save one big matmul
    return complex(np.einsum("ij,ij->", m.conj(), rr @ m))


def doubled_lhs(
    rho: DensityMatrix,
    x: ProductOperator,
    y: ProductOperator,
    *,
    cap: int = ORACLE_DIM_CAP,
) -> complex:
    """Left-hand-side two-copy trace Tr[(X^dag x Y^dag) rho^(x2) P (X x Y)].

    Under the adopted reading P(X x Y) = Y x X, so the value equals
    Tr[(X^dag x Y^dag) rho^(x2) (Y x X)] = |Tr[X^dag rho Y]|^2.
    """
    _check_oracle_cap(rho, cap)
    rr = np.kron(rho.mat, rho.mat)
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

    def record(self, slack: float, tol: float) -> None:
        self.trials += 1
        self.worst_slack = min(self.worst_slack, slack)
        if slack < -tol:
            self.failures += 1


@dataclass
class ProofChainReport:
    steps: dict[str, StepResult] = field(default_factory=dict)
    tolerance: float = 1e-10

    def step(self, name: str) -> StepResult:
        return self.steps.setdefault(name, StepResult())

    @property
    def passed(self) -> bool:
        return all(s.failures == 0 for s in self.steps.values())

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tolerance": self.tolerance,
            "steps": {
                name: {
                    "trials": s.trials,
                    "failures": s.failures,
                    "worst_slack": s.worst_slack,
                }
                for name, s in self.steps.items()
            },
        }


def factorization_check(
    trials: int = 50,
    seed: int = 0,
    *,
    shapes: tuple[tuple[int, int], ...] = ((2, 2), (2, 3), (3, 2)),
    tol: float = 1e-10,
) -> dict:
    """Compare doubled-space values against their factorized counterparts.

    For each (N, d) shape runs `trials` random instances and records the
    worst relative deviation between:

    - the subset term Tr[(A^dag x B^dag) rho^(x2) (A x B)] and
      Tr[rho A A^dag] Tr[rho B B^dag],
    - the global left-hand side and |Tr[X^dag rho Y]|^2,
    - the site-probe terms (substituted pair, and squared single sandwich)
      and their factorized forms.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    count = 0
    for n, d in shapes:
        dims = SiteDims((d,) * n)
        for _ in range(trials):
            rho = random_mixed_state(dims, rng, rank=int(rng.integers(1, 4)))
            x = random_product_operator(dims, rng)
            y = random_product_operator(dims, rng)
            mask = int(rng.integers(0, 1 << n))
            alpha = PermutationAction(
                frozenset(i + 1 for i in range(n) if mask >> i & 1)
            )
            a_op, b_op = swap_on_subset(x, y, alpha)
            lit = doubled_term(rho, x, y, alpha)
            fac = sandwich_trace(rho, a_op) * sandwich_trace(rho, b_op)
            worst = max(worst, abs(lit - fac) / max(1.0, abs(fac)))

            lit_lhs = doubled_lhs(rho, x, y)
            fac_lhs = abs(cross_trace(rho, x, y)) ** 2
            worst = max(worst, abs(lit_lhs - fac_lhs) / max(1.0, abs(fac_lhs)))

            # site-probe forms: one random (i, j, s, t) tuple per instance
            omegas = [
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            ]
            ev = Theorem2Evaluator(x, omegas)
            tr = ev.traces(rho)
            i, j = rng.permutation(n)[:2]
            x_i = x.replace_factor(int(i) + 1, omegas[0])
            x_ij = x_i.replace_factor(int(j) + 1, omegas[0])
            lit_pair = doubled_term(rho, x_i, x.replace_factor(int(j) + 1, omegas[0]),
                                    PermutationAction(frozenset({int(i) + 1})))
            fac_pair = sandwich_trace(rho, x) * sandwich_trace(rho, x_ij)
            worst = max(worst, abs(lit_pair - fac_pair) / max(1.0, abs(fac_pair)))

            lit_diag = doubled_term(rho, x_i, x_i, PermutationAction(frozenset()))
            fac_diag = sandwich_trace(rho, x_i) ** 2
            worst = max(worst, abs(lit_diag - fac_diag) / max(1.0, abs(fac_diag)))

            fac_cross = abs(tr.cross[0, 0, int(i), int(j)]) ** 2
            lit_cross = doubled_lhs(rho, x_i, x.replace_factor(int(j) + 1, omegas[0]))
            worst = max(worst, abs(lit_cross - fac_cross) / max(1.0, abs(fac_cross)))
            count += 1
    return {
        "trials": count,
        "worst_relative_error": worst,
        "tolerance": tol,
        "passed": bool(worst <= tol),
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


def verify_proof_chain(
    n_trials: int = 100,
    seed: int = 0,
    *,
    dims: SiteDims | None = None,
    tol: float = 1e-10,
) -> ProofChainReport:
    """Numerically check every chained inequality behind both criteria.

    Steps (rel-scaled slack must stay >= -tol):

    - t1-mixture-triangle: |Tr[X^dag rho Y]| <= sum_m p_m |Tr[X^dag rho_m Y]|
    - t1-pure-bound: the subset-swap inequality on pure states with >= k
      unentangled particles
    - t1-cauchy-schwarz: per subset, sum_m p_m sqrt(a_m b_m) <=
      sqrt(sum p a * sum p b)
    - t2-mixture-triangle / t2-pure-bound / t2-cauchy-schwarz: the
      site-probe analogues (pure bound checked for every k = 1..N-1)
    """
    if dims is None:
        dims = SiteDims((2, 2, 2))
    rng = np.random.default_rng(seed)
    report = ProofChainReport(tolerance=tol)
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
        pure = components[0]

        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)

        # --- subset-swap criterion chain ---
        lhs_mixed = abs(cross_trace(rho, x, y))
        triangle_rhs = sum(
            w * abs(cross_trace(r, x, y)) for w, r in zip(weights, components)
        )
        scale = max(1.0, lhs_mixed, triangle_rhs)
        report.step("t1-mixture-triangle").record((triangle_rhs - lhs_mixed) / scale, tol)

        rep = Theorem1Evaluator(x, y).evaluate(pure, k)
        scale = max(1.0, rep.lhs * (2 ** (k + 1) - 2), rep.rhs)
        report.step("t1-pure-bound").record(-rep.margin / scale, tol)

        for mask in (1, full - 1, full >> 1):
            alpha = PermutationAction(
                frozenset(i + 1 for i in range(n) if mask >> i & 1)
            )
            a_op, b_op = swap_on_subset(x, y, alpha)
            a_vals = [sandwich_trace(r, a_op) for r in components]
            b_vals = [sandwich_trace(r, b_op) for r in components]
            lhs_cs = sum(
                w * np.sqrt(max(a, 0.0) * max(b, 0.0))
                for w, a, b in zip(weights, a_vals, b_vals)
            )
            rhs_cs = np.sqrt(
                max(sum(w * a for w, a in zip(weights, a_vals)), 0.0)
                * max(sum(w * b for w, b in zip(weights, b_vals)), 0.0)
            )
            scale = max(1.0, lhs_cs, rhs_cs)
            report.step("t1-cauchy-schwarz").record((rhs_cs - lhs_cs) / scale, tol)

        # --- site-probe criterion chain (equal local dims guaranteed here) ---
        omegas = [
            rng.standard_normal((dims.dims[0],) * 2)
            + 1j * rng.standard_normal((dims.dims[0],) * 2)
            for _ in range(int(rng.integers(1, 3)))
        ]
        ev = Theorem2Evaluator(x, omegas)
        mixed_tr = ev.traces(rho)
        comp_tr = [ev.traces(r) for r in components]

        lhs_mixed2 = float(np.sum(np.abs(mixed_tr.cross)))
        tri2 = sum(w * float(np.sum(np.abs(t.cross))) for w, t in zip(weights, comp_tr))
        scale = max(1.0, lhs_mixed2, tri2)
        report.step("t2-mixture-triangle").record((tri2 - lhs_mixed2) / scale, tol)

        pure_tr = comp_tr[0]
        for kk in range(1, n):
            rep2 = ev.report(pure_tr, kk)
            scale = max(1.0, rep2.lhs, rep2.rhs)
            report.step("t2-pure-bound").record(-rep2.margin / scale, tol)

        lhs_cs2 = sum(
            w * np.sqrt(max(t.base, 0.0) * np.maximum(t.pair, 0.0))
            for w, t in zip(weights, comp_tr)
        )
        rhs_cs2 = np.sqrt(
            max(sum(w * t.base for w, t in zip(weights, comp_tr)), 0.0)
            * np.maximum(sum(w * t.pair for w, t in zip(weights, comp_tr)), 0.0)
        )
        worst = float(np.min(rhs_cs2 - lhs_cs2))
        scale = max(1.0, float(np.max(lhs_cs2)), float(np.max(rhs_cs2)))
        report.step("t2-cauchy-schwarz").record(worst / scale, tol)

    return report
