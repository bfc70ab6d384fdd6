"""State constructors and noise families."""

from __future__ import annotations

import hashlib
import re
from math import sqrt

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kunent import (
    DensityMatrix,
    Mixture,
    ProductOperator,
    Theorem1Evaluator,
    ghz,
    ghz_noise_family,
    mix,
    qubits,
    qudits,
    random_k_unentangled,
    sandwich_trace,
    shift_sigma,
    w_noise_family,
    w_state,
    w_tilde,
    WhiteNoise,
)
from kunent.criteria import ghz_probe
from kunent.states import (
    NoiseFamily,
    _product_amplitudes,
    _random_blocks,
    component_weights,
    random_k_unentangled_terms,
)

from conftest import random_product_operator

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)

# frozen once from the seeded generator; guards against silent drift
PINNED_SHA256 = "0b38f340d5f464900ed0aaeee4c6a9b376462a1270bd7e4f0e5e78163249df4f"


class TestGhz:
    def test_two_qubits(self):
        psi = ghz(2)
        assert_allclose(psi.amplitudes, np.array([1, 0, 0, 1]) / sqrt(2))

    def test_eight_qubits_support(self):
        psi = ghz(8)
        nz = np.nonzero(psi.amplitudes)[0]
        assert list(nz) == [0, 255]
        assert np.vdot(psi.amplitudes, psi.amplitudes) == pytest.approx(1.0)

    def test_all_zero_projector_expectation(self):
        psi = ghz(8)
        proj = ProductOperator(psi.dims, (KET0,) * 8)
        assert sandwich_trace(psi.to_density_matrix(), proj) == pytest.approx(0.5)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ghz(1)


class TestWState:
    def test_qubit_w(self):
        psi = w_state(3, 2)
        expected = np.zeros(8)
        expected[[1, 2, 4]] = 1 / sqrt(3)
        assert_allclose(psi.amplitudes, expected)

    def test_two_qutrits_enumerated(self):
        # n=2, d=3: terms |01>, |02>, |10>, |20>, each amplitude 1/2
        psi = w_state(2, 3)
        expected = np.zeros(9)
        expected[[1, 2, 3, 6]] = 0.5
        assert_allclose(psi.amplitudes, expected)

    def test_support_size_and_uniformity(self):
        psi = w_state(5, 4)
        nz = np.nonzero(psi.amplitudes)[0]
        assert len(nz) == 5 * 3
        assert_allclose(psi.amplitudes[nz], np.full(15, 1 / sqrt(15)))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            w_state(1, 3)
        with pytest.raises(ValueError):
            w_state(3, 1)


class TestShiftSigma:
    def test_qubit_is_bit_flip(self):
        assert_allclose(shift_sigma(2), np.array([[0, 1], [1, 0]]))

    def test_qutrit_cycle(self):
        sigma = shift_sigma(3)
        e0 = np.array([1, 0, 0])
        assert_allclose(sigma @ e0, [0, 1, 0])
        assert_allclose(sigma @ sigma @ e0, [0, 0, 1])
        assert_allclose(sigma @ sigma @ sigma @ e0, e0)

    def test_order_d(self):
        sigma = shift_sigma(4)
        assert_allclose(np.linalg.matrix_power(sigma, 4), np.eye(4))

    def test_rejects_d_below_2(self):
        with pytest.raises(ValueError, match=r"^shift needs d >= 2, got 1$"):
            shift_sigma(1)


class TestWTilde:
    def test_qubit_case_is_flipped_w(self):
        psi = w_tilde(3, 2)
        expected = np.zeros(8)
        expected[[6, 5, 3]] = 1 / sqrt(3)  # |110>, |101>, |011>
        assert_allclose(psi.amplitudes, expected)

    def test_orthogonal_to_w(self):
        w = w_state(5, 4)
        wt = w_tilde(5, 4)
        assert abs(np.vdot(wt.amplitudes, w.amplitudes)) < 1e-14

    def test_matches_sitewise_shift_exactly(self):
        n, d = 3, 4
        w = w_state(n, d)
        sigma = shift_sigma(d)
        full = np.kron(np.kron(sigma, sigma), sigma)
        assert_allclose(w_tilde(n, d).amplitudes, full @ w.amplitudes, atol=0)

    def test_norm_preserved(self):
        amp = w_tilde(4, 3).amplitudes
        assert np.vdot(amp, amp).real == pytest.approx(1.0)


class TestMix:
    def test_single_pure_signal(self):
        psi = ghz(3)
        rho = mix([(1.0, psi)], psi.dims)
        assert_allclose(rho.mat, np.outer(psi.amplitudes, psi.amplitudes.conj()))

    def test_empty_is_maximally_mixed(self):
        rho = mix([], qubits(3))
        assert_allclose(rho.mat, np.eye(8) / 8)

    def test_trace_one(self):
        rho = mix([(0.5, w_state(5, 4)), (0.25, w_tilde(5, 4))], qudits(5, 4))
        assert np.trace(rho.mat) == pytest.approx(1.0)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="negative"):
            mix([(-0.1, ghz(2))], qubits(2))

    def test_rejects_weights_over_one(self):
        with pytest.raises(ValueError, match="> 1"):
            mix([(0.7, ghz(2)), (0.4, ghz(2))], qubits(2))

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="non-finite"):
            mix([(weight, ghz(2))], qubits(2))
        with pytest.raises(ValueError, match="non-finite"):
            Mixture(qubits(2), ((weight, ghz(2)),))

    def test_mixture_holds_components_and_densifies_to_mix(self):
        signals = ((0.5, w_state(3, 3)), (0.25, w_tilde(3, 3)))
        rho = Mixture(qudits(3, 3), signals)
        assert rho.weights.tolist() == [0.5, 0.25, 0.25]
        assert isinstance(rho.components[-1], WhiteNoise)
        assert np.array_equal(rho.dense().mat, mix(list(signals), qudits(3, 3)).mat)

    def test_component_weights_batch(self):
        batch = component_weights([[0.5, 0.25], [0.0, 1.0]])
        assert batch.tolist() == [[0.5, 0.25, 0.25], [0.0, 1.0, 0.0]]
        with pytest.raises(ValueError, match="> 1"):
            component_weights([[0.5, 0.25], [0.6, 0.6]])

    def test_random_mixtures_are_valid_states(self, rng):
        for _ in range(5):
            w1, w2 = rng.dirichlet((1, 1)) * rng.uniform(0, 1)
            rho = mix([(w1, w_state(3, 3)), (w2, w_tilde(3, 3))], qudits(3, 3))
            # full validation including eigencheck
            DensityMatrix(rho.dims, rho.mat)


class TestNoiseFamilies:
    def test_ghz_family(self):
        fam = ghz_noise_family(4)
        rho = fam.evaluate(0.25).dense()
        assert np.trace(rho.mat) == pytest.approx(1.0)
        assert rho.mat[0, -1] == pytest.approx(0.125)

    @pytest.mark.parametrize("fam,weights", [
        (ghz_noise_family(4), (0.25,)), (w_noise_family(3, 3), (0.5, 0.25)),
    ])
    def test_point_is_a_mixture_without_a_dense_matrix(self, monkeypatch, fam, weights):
        with monkeypatch.context() as m:
            def tripwire(self):
                raise AssertionError("a D x D DensityMatrix was built")

            m.setattr(DensityMatrix, "__post_init__", tripwire)
            point = fam.evaluate(*weights)
            Theorem1Evaluator(*ghz_probe(fam.dims)).evaluate(point, 1)
        assert isinstance(point, Mixture)
        assert point.weights.tolist() == [*weights, 1.0 - sum(weights)]
        assert all(c is psi for c, psi in zip(point.components, fam.signals))
        assert np.array_equal(point.dense().mat, mix(list(zip(weights, fam.signals)), fam.dims).mat)

    def test_signal_dims_checked_without_a_mixture(self, monkeypatch):
        # the family checks its signals itself, with the words a Mixture uses
        message = re.escape("signal dims (2, 2, 2) do not match family dims (2, 2)")
        with pytest.raises(ValueError, match=message):
            Mixture(qubits(2), ((0.0, ghz(3)),))
        monkeypatch.setattr(Mixture, "__post_init__", None)  # building one fails
        with pytest.raises(ValueError, match=message):
            NoiseFamily(qubits(2), (ghz(2), ghz(3)), ("p", "q"))
        NoiseFamily(qubits(3), (ghz(3),), ("p",))

    def test_one_parameter_name_per_signal(self):
        with pytest.raises(ValueError, match=r"^one parameter name per signal state required$"):
            NoiseFamily(qubits(2), (ghz(2), ghz(2)), ("p",))

    def test_w_family_param_count(self):
        fam = w_noise_family(3, 3)
        with pytest.raises(ValueError, match="parameters"):
            fam.evaluate(0.5)


class TestPartition:
    def test_random_partition_shape(self, rng):
        blocks = _random_blocks(5, 2, rng)
        assert sorted(len(b) for b in blocks) == [1, 1, 3]
        assert sorted(s for b in blocks for s in b) == list(range(5))


class TestProductPureState:
    def test_site_order_restored(self, rng):
        # blocks {2} and {1,3}: the assembled state must live in site order
        single = np.array([1.0, 0.0], dtype=complex)
        block = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)  # |0>|1> on (1,3)
        amp = _product_amplitudes((2, 2, 2), [[1], [0, 2]], [single, block])
        expected = np.zeros(8, dtype=complex)
        expected[0b001] = 1.0  # site1=0, site2=0, site3=1
        assert_allclose(amp, expected)


class TestRandomKUnentangled:
    def test_deterministic_under_seed(self):
        a = random_k_unentangled(qubits(3), 1, 5, seed=99)
        b = random_k_unentangled(qubits(3), 1, 5, seed=99)
        assert np.array_equal(a.mat, b.mat)

    def test_pinned_regression(self):
        rho = random_k_unentangled(qubits(3), k=1, terms=5, seed=20240501)
        digest = hashlib.sha256(
            np.ascontiguousarray(rho.mat.round(12)).tobytes()
        ).hexdigest()
        assert digest == PINNED_SHA256

    def test_output_is_valid_state(self):
        for seed in range(5):
            rho = random_k_unentangled(qubits(4), 2, 3, seed=seed)
            DensityMatrix(rho.dims, rho.mat)  # full validation

    def test_full_product_satisfies_strongest_inequality(self, rng):
        # k = N-1 with one term: a random full product state; the subset-swap
        # criterion at the largest k must not fire
        dims = qubits(4)
        rho = random_k_unentangled(dims, 3, 1, seed=7)
        for _ in range(5):
            x = random_product_operator(dims, rng)
            y = random_product_operator(dims, rng)
            rep = Theorem1Evaluator(x, y).evaluate(rho, 3)
            assert not rep.detected
            assert rep.margin <= 1e-12

    def test_rejects_no_terms(self):
        with pytest.raises(ValueError, match=r"^terms must be >= 1, got 0$"):
            random_k_unentangled_terms(qubits(3), 1, 0, np.random.default_rng(0))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            random_k_unentangled(qubits(3), 3, 1, seed=0)
        with pytest.raises(ValueError):
            random_k_unentangled(qubits(3), 0, 1, seed=0)
