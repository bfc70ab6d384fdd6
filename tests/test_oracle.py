"""Doubled-space oracle: factorization equivalence and proof-chain checks."""

from __future__ import annotations

import numpy as np
import pytest

from kunent import (
    DensityMatrix,
    ProductOperator,
    PureState,
    SiteDims,
    Theorem1Evaluator,
    assemble,
    cross_trace,
    doubled_lhs,
    doubled_term,
    oracle_check,
    qubits,
    sandwich_trace,
    swap_on_subset,
    verify_proof_chain,
)
from kunent.oracle import ProofChainReport, factorization_check

from conftest import random_mixed_state, random_product_operator, random_pure_product


def swap_matrix(dims: SiteDims, alpha: set[int]) -> np.ndarray:
    """Permutation matrix on H (x) H exchanging the alpha sites of the copies."""
    n = dims.n
    d2 = dims.total_dim**2
    perm_axes = [i + n if (i + 1) in alpha else i for i in range(n)] + [
        i if (i + 1) in alpha else i + n for i in range(n)
    ]
    targets = np.transpose(np.arange(d2).reshape(dims.dims * 2), perm_axes).reshape(-1)
    mat = np.zeros((d2, d2))
    mat[targets, np.arange(d2)] = 1.0
    return mat


def matrix_reading_lhs(rho: DensityMatrix, x: ProductOperator, y: ProductOperator) -> complex:
    """Tr[(X^dag x Y^dag) rho^(x2) P (X x Y)] with P the full subsystem-swap
    matrix acting by multiplication: the rejected reading of the permutation."""
    p = swap_matrix(rho.dims, set(range(1, rho.dims.n + 1)))
    left = np.kron(assemble(x).conj().T, assemble(y).conj().T)
    right = p @ np.kron(assemble(x), assemble(y))
    return complex(np.einsum("ij,ji->", left, np.kron(rho.mat, rho.mat) @ right))


class TestDoubledTerm:
    def test_identity_probes_empty_subset(self, rng):
        dims = qubits(2)
        rho = random_mixed_state(dims, rng)
        eye = ProductOperator.identity(dims)
        value = doubled_term(rho, eye, eye, set())
        assert value == pytest.approx(1.0)  # trace of rho (x) rho

    def test_alpha_is_any_collection_of_sites(self, rng):
        dims = qubits(3)
        rho = random_mixed_state(dims, rng)
        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)
        value = doubled_term(rho, x, y, {1, 3})
        for alpha in ([3, 1], (1, 3), frozenset({1, 3}), range(1, 4, 2)):
            assert doubled_term(rho, x, y, alpha) == value
        with pytest.raises(ValueError, match=r"out of range 1\.\.3"):
            doubled_term(rho, x, y, {1.9})

    @pytest.mark.parametrize("n,d,trials", [(2, 2, 50), (2, 3, 50), (3, 2, 50), (3, 3, 20)])
    def test_factorization_identity(self, n, d, trials, rng):
        dims = SiteDims((d,) * n)
        for _ in range(trials):
            rho = random_mixed_state(dims, rng, rank=int(rng.integers(1, 4)))
            x = random_product_operator(dims, rng)
            y = random_product_operator(dims, rng)
            mask = int(rng.integers(0, 1 << n))
            alpha = {i + 1 for i in range(n) if mask >> i & 1}
            lit = doubled_term(rho, x, y, alpha)
            a, b = swap_on_subset(x, y, alpha)
            fac = sandwich_trace(rho, a) * sandwich_trace(rho, b)
            assert abs(lit - fac) <= 1e-10 * max(1.0, abs(fac))

    def test_global_lhs_on_pure_state(self, rng):
        dims = qubits(2)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = PureState(dims, z / np.linalg.norm(z))
        rho = psi.to_density_matrix()
        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)
        overlap = psi.amplitudes.conj() @ assemble(y) @ assemble(x).conj().T @ psi.amplitudes
        assert doubled_lhs(rho, x, y) == pytest.approx(abs(overlap) ** 2, rel=1e-10)

    def test_global_lhs_equals_cross_modulus_squared(self, rng):
        dims = SiteDims((3, 2))
        rho = random_mixed_state(dims, rng)
        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)
        assert doubled_lhs(rho, x, y) == pytest.approx(
            abs(cross_trace(rho, x, y)) ** 2, rel=1e-10
        )

    def test_theorem1_term_is_sqrt_of_doubled_value(self, rng):
        dims = SiteDims((2, 2, 2))
        for _ in range(10):
            rho = random_mixed_state(dims, rng)
            x = random_product_operator(dims, rng)
            y = random_product_operator(dims, rng)
            alpha = {int(rng.integers(1, 4))}
            lit = doubled_term(rho, x, y, alpha)
            a, b = swap_on_subset(x, y, alpha)
            term = np.sqrt(max(sandwich_trace(rho, a), 0.0) * max(sandwich_trace(rho, b), 0.0))
            assert term == pytest.approx(
                float(np.sqrt(max(lit.real, 0.0))), rel=1e-10, abs=1e-12
            )

    def test_cap_enforced(self, rng):
        dims = qubits(7)  # 128 > 64 per-copy cap
        rho = DensityMatrix(dims, np.eye(128, dtype=complex) / 128, _check_psd=False)
        eye = ProductOperator.identity(dims)
        with pytest.raises(ValueError, match="oracle"):
            doubled_term(rho, eye, eye, set())


class TestRejectedReading:
    def test_matrix_reading_gives_sandwich_product_on_pure(self, rng):
        dims = qubits(2)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = PureState(dims, z / np.linalg.norm(z))
        rho = psi.to_density_matrix()
        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)
        mat = matrix_reading_lhs(rho, x, y)
        assert mat == pytest.approx(
            sandwich_trace(rho, x) * sandwich_trace(rho, y), rel=1e-10
        )

    def test_readings_disagree(self, rng):
        # the discrepancy that motivates the factor-exchange convention
        dims = qubits(2)
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = PureState(dims, z / np.linalg.norm(z))
        rho = psi.to_density_matrix()
        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)
        action = doubled_lhs(rho, x, y)
        matrix = matrix_reading_lhs(rho, x, y)
        assert abs(action - matrix) > 1e-6

    def test_swap_matrix_is_involution(self):
        dims = qubits(2)
        p = swap_matrix(dims, {1})
        assert np.array_equal(p @ p, np.eye(16))
        assert np.array_equal(p, p.T)


class TestProofChain:
    def test_pure_product_states_have_nonnegative_slack(self, rng):
        dims = qubits(3)
        for _ in range(10):
            amp = random_pure_product(dims, rng)
            rho = PureState(dims, amp).to_density_matrix()
            x = random_product_operator(dims, rng)
            y = random_product_operator(dims, rng)
            for k in (1, 2):
                assert Theorem1Evaluator(x, y).evaluate(rho, k).margin <= 1e-10

    def test_seeded_run_has_zero_failures(self):
        report = verify_proof_chain(100, seed=5)
        assert report.passed
        for name, step in report.steps.items():
            assert step.failures == 0, name
            assert step.trials > 0

    def test_pure_bound_checked_only_where_implied(self):
        # seed 8 draws a state with k = 1 on which T2 rightly fires at k' = 2
        assert verify_proof_chain(50, seed=8).passed

    def test_near_degenerate_states_covered(self):
        # trial indices 9, 19, ... use the rank-1 + 1e-13 noise stress case
        report = verify_proof_chain(20, seed=1)
        assert report.passed

    def test_negative_slack_counts_as_failure(self):
        report = ProofChainReport()
        report.step("ok").record(0.0)
        report.step("ok").record(-0.5e-10)
        assert report.passed
        report.step("bad").record(-3e-10, 2.0)  # relative slack -1.5e-10
        assert report.steps["bad"].failures == 1 and not report.passed
        assert report.steps["bad"].worst_slack == -1.5e-10

    def test_report_dict_shape(self):
        report = verify_proof_chain(5, seed=0)
        payload = report.to_dict()
        assert set(payload) == {"passed", "tolerance", "steps"}
        for step in payload["steps"].values():
            assert set(step) == {"trials", "failures", "worst_slack"}


class TestOracleCheck:
    def test_default_run_passes(self):
        result = oracle_check(trials=10, seed=0)
        assert result["passed"]
        assert result["factorization"]["passed"]
        assert result["proof_chain"]["passed"]

    def test_factorization_worst_error_tiny(self):
        result = factorization_check(trials=10, seed=3)
        assert result["worst_relative_error"] < 1e-10
