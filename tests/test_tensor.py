"""Tensor-core: Kronecker assembly, state validation, trace kernels."""

from __future__ import annotations

import re
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kunent import (
    DensityMatrix,
    ProductOperator,
    PureState,
    SiteDims,
    assemble,
    cross_trace,
    product_trace,
    qubits,
    qudits,
    WhiteNoise,
    pair_blocks,
    sandwich_trace,
    subset_trace_sweep,
)
from kunent.config import DIM_CAP_ENV_VAR, PSD_TOL

from conftest import random_mixed_state, random_product_operator

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)   # |0><0|
RAISE = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|
I2 = np.eye(2, dtype=complex)


class TestSiteDims:
    def test_basic(self):
        dims = SiteDims((2, 3, 4))
        assert dims.n == 3
        assert dims.total_dim == 24

    def test_rejects_single_site(self):
        with pytest.raises(ValueError, match="at least 2 sites"):
            SiteDims((4,))

    def test_rejects_trivial_dimension(self):
        with pytest.raises(ValueError, match=">= 2"):
            SiteDims((2, 1, 2))

    def test_rejects_over_cap(self):
        with pytest.raises(ValueError, match="cap"):
            SiteDims((2,) * 13)  # 8192 > 4096

    def test_site_count_checked_before_product(self):
        # more sites than the cap has bits: no n-tuple, no product is formed
        for n in (13, 5000, 10**21):
            with pytest.raises(ValueError, match=f"N={n} sites exceed the dense-matrix cap 4096"):
                qubits(n)
        with pytest.raises(ValueError, match="N=5000 sites exceed"):
            SiteDims((3,) * 5000)

    @pytest.mark.parametrize("n", [1, 0, -2])
    def test_site_count_named_before_tuple_is_built(self, n):
        with pytest.raises(ValueError, match=f"need at least 2 sites, got {n}$"):
            qudits(n, 3)

    @pytest.mark.parametrize("raw,message", [("abc", "must be an integer, got 'abc'"),
                                             ("1", "must be >= 2, got 1")])
    def test_invalid_env_cap_rejected(self, monkeypatch, raw, message):
        monkeypatch.setenv(DIM_CAP_ENV_VAR, raw)
        with pytest.raises(ValueError, match=f"{DIM_CAP_ENV_VAR} {message}"):
            SiteDims((2, 2))

    def test_env_var_overrides_cap(self, monkeypatch):
        monkeypatch.setenv(DIM_CAP_ENV_VAR, "16")
        with pytest.raises(ValueError, match="cap"):
            SiteDims((2, 2, 2, 2, 2))
        SiteDims((2, 2, 2, 2))  # exactly at the cap

    @pytest.mark.parametrize("dims", [(2.7, 2), (2.0, 2), ("2", 2), (np.float64(3), 3), (2, True)])
    def test_rejects_non_integer_dimension(self, dims):
        with pytest.raises(ValueError, match="local dimensions must be integers"):
            SiteDims(dims)

    def test_qudits_rejects_non_integer_dimension(self):
        with pytest.raises(ValueError, match="local dimensions must be integers"):
            qudits(3, 2.5)

    def test_numpy_integers_become_int(self):
        dims = SiteDims((np.int64(2), np.int32(3)))
        assert dims.dims == (2, 3)
        assert all(type(d) is int for d in dims.dims)

    def test_uniform(self):
        assert SiteDims((3, 3)).uniform() == 3
        with pytest.raises(ValueError, match="unequal"):
            SiteDims((2, 3)).uniform()


class TestKron:
    """Two-site Kronecker products through `assemble`, site 1 most significant."""

    @staticmethod
    def kron(a, b):
        return assemble(ProductOperator(qubits(2), (a, b)))

    def test_identity(self):
        assert_allclose(self.kron(I2, I2), np.eye(4))

    def test_elementary(self):
        out = self.kron(RAISE, RAISE)
        expected = np.zeros((4, 4))
        expected[3, 0] = 1.0
        assert_allclose(out, expected)

    def test_diagonal(self):
        out = self.kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert_allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))


class TestAssemble:
    def test_all_identity(self):
        dims = SiteDims((2, 3, 2))
        op = ProductOperator.identity(dims)
        assert_allclose(assemble(op), np.eye(12))

    def test_two_site_elementary(self):
        op = ProductOperator(qubits(2), (RAISE, KET0))
        expected = np.zeros((4, 4))
        expected[2, 0] = 1.0
        assert_allclose(assemble(op), expected)

    def test_matches_iterated_kron(self, rng):
        dims = SiteDims((2, 3, 2))
        op = random_product_operator(dims, rng)
        expected = reduce(np.kron, op.factors)
        assert_allclose(assemble(op), expected, rtol=0, atol=0)

    def test_association_order(self, rng):
        dims = SiteDims((2, 2, 3))
        op = random_product_operator(dims, rng)
        f1, f2, f3 = op.factors
        other = np.kron(f1, np.kron(f2, f3))
        assert_allclose(assemble(op), other, atol=1e-12)


class TestProductOperator:
    def test_factor_shape_validated(self):
        with pytest.raises(ValueError, match="factor for site 2"):
            ProductOperator(qubits(2), (I2, np.eye(3)))

    def test_factor_count_validated(self):
        with pytest.raises(ValueError, match=r"^expected 2 factors, got 1$"):
            ProductOperator(qubits(2), (I2,))

    def test_rejects_nonfinite(self):
        bad = np.array([[np.inf, 0], [0, 0]])
        with pytest.raises(ValueError, match="finite"):
            ProductOperator(qubits(2), (bad, I2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, -np.inf)],
                             ids=["nan", "inf", "-inf", "nan-imag", "-inf-imag"])
    def test_nonfinite_entry_named_for_every_container(self, value):
        factor = I2.copy()
        factor[1, 0] = value
        with pytest.raises(ValueError, match=r"^factor for site 2 contains non-finite entries$"):
            ProductOperator(qubits(2), (I2, factor))
        amplitudes = np.array([1, 0, 0, value])
        with pytest.raises(ValueError, match=r"^amplitudes contains non-finite entries$"):
            PureState(qubits(2), amplitudes)
        mat = np.eye(4, dtype=complex) / 4
        mat[2, 3] = value
        with pytest.raises(ValueError, match=r"^density matrix contains non-finite entries$"):
            DensityMatrix(qubits(2), mat)

    def test_immutable(self):
        op = ProductOperator(qubits(2), (I2, I2))
        with pytest.raises(ValueError):
            op.factors[0][0, 0] = 5.0

    def test_replace_factor(self):
        op = ProductOperator(qubits(2), (I2, I2))
        out = op.replace_factor(2, RAISE)
        assert_allclose(out.factors[1], RAISE)
        assert_allclose(op.factors[1], I2)
        with pytest.raises(ValueError, match="out of range"):
            op.replace_factor(3, RAISE)

    @pytest.mark.parametrize("site", [2.0, 1.5, np.float64(1.0), "1", True, False],
                             ids=["2.0", "1.5", "np1.0", "str", "True", "False"])
    def test_replace_factor_rejects_non_integer_site(self, site):
        # sites are integers, as in swap_on_subset: 2.0 once raised a TypeError,
        # and True once replaced site 1
        op = ProductOperator.identity(qubits(3))
        with pytest.raises(ValueError, match=rf"site {re.escape(repr(site))} out of range 1\.\.3"):
            op.replace_factor(site, RAISE)


class TestStateValidation:
    def test_pure_state_norm(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(qubits(2), np.array([1.0, 1.0, 0.0, 0.0]))

    def test_density_matrix_hermiticity(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(qubits(2), mat)

    def test_hermiticity_deviation_over_row_blocks(self):
        # D = 1024 is checked in four row blocks; the deviation sits in the
        # last one and is reported, and decided on, as over the whole matrix
        dims = qubits(10)
        d = dims.total_dim
        for dev, raises in [(1e-10, False), (1.5e-10, True), (3e-6, True)]:
            mat = np.eye(d, dtype=complex) / d
            mat[1000, 900] = dev
            full = float(np.max(np.abs(mat - mat.conj().T)))
            if raises:
                with pytest.raises(ValueError, match=f"deviation {full:.3e}"):
                    DensityMatrix(dims, mat, _check_psd=False)
            else:
                DensityMatrix(dims, mat, _check_psd=False)

    def test_density_matrix_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(qubits(2), np.eye(4, dtype=complex))

    def test_density_matrix_psd(self):
        mat = np.diag([0.8, 0.7, -0.5, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(qubits(2), mat)

    @pytest.mark.parametrize("lam, rejected", [(2e-10, True), (5e-11, False)])
    def test_psd_tolerance_is_tight(self, lam, rejected):
        # eigenvalue -lam, with the trace kept at 1: a looser PSD_TOL accepts -2e-10
        mat = np.diag([0.5 + lam, 0.5, 0.0, -lam]).astype(complex)
        if rejected:
            with pytest.raises(ValueError, match="negative eigenvalue -2.000e-10"):
                DensityMatrix(qubits(2), mat)
        else:
            DensityMatrix(qubits(2), mat)

    def test_rank_one_projector_passes_by_cholesky(self, monkeypatch):
        # singular, so only the shift s = PSD_TOL - bound lets it factor
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        psi /= np.linalg.norm(psi)

        def eigvalsh(a):
            raise AssertionError("the eigvalsh fallback ran")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        DensityMatrix(qubits(10), np.outer(psi, psi.conj()))

    def test_eigvalsh_decides_what_cholesky_cannot(self, monkeypatch):
        # -PSD_TOL (1 - 1e-6) is within the tolerance, but the shift is
        # PSD_TOL minus the error bound, so the factorization fails
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        lam = PSD_TOL * (1 - 1e-6)
        DensityMatrix(qubits(2), np.diag([0.5 + lam, 0.5, 0.0, -lam]).astype(complex))
        assert len(calls) == 1

    @pytest.mark.parametrize("scale, rejected", [(1 - 1e-3, False), (1 + 1e-3, True)])
    def test_rotated_eigenvalue_at_the_tolerance(self, scale, rejected):
        # the same decision in a random eigenbasis, where no entry is 0
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        lam = PSD_TOL * scale
        mat = (q * np.r_[np.full(15, (1 + lam) / 15), -lam]) @ q.conj().T
        mat = (mat + mat.conj().T) / 2
        if rejected:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                DensityMatrix(qubits(4), mat)
        else:
            DensityMatrix(qubits(4), mat)

    def test_non_finite_factor_defers_to_eigvalsh(self, monkeypatch):
        # a LAPACK whose pivot test misses NaN returns a NaN factor without an error
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: np.full_like(a, np.nan))
        with pytest.raises(ValueError, match="negative eigenvalue -5.000e-01"):
            DensityMatrix(qubits(2), np.diag([0.8, 0.7, -0.5, 0.0]).astype(complex))

    def test_psd_check_skippable_for_mixtures(self):
        mat = np.diag([0.8, 0.7, -0.5, 0.0]).astype(complex)
        DensityMatrix(qubits(2), mat, _check_psd=False)  # no eigencheck path

    def test_valid_random_state(self, rng):
        random_mixed_state(qubits(2), rng)


class TestSandwichTrace:
    def test_projector_onto_state(self):
        dims = qubits(3)
        amp = np.zeros(8, dtype=complex)
        amp[0] = 1.0
        rho = PureState(dims, amp).to_density_matrix()
        m = ProductOperator(dims, (KET0, KET0, KET0))
        assert sandwich_trace(rho, m) == pytest.approx(1.0)

    def test_maximally_mixed_rank_one_probe(self):
        # factors |0><0| on two sites, |1><0| elsewhere: M M^dag projects
        # onto a single basis vector, so the value is 1/256
        dims = qubits(8)
        rho = DensityMatrix(dims, np.eye(256, dtype=complex) / 256, _check_psd=False)
        factors = tuple(KET0 if i in (0, 4) else RAISE for i in range(8))
        m = ProductOperator(dims, factors)
        assert sandwich_trace(rho, m) == pytest.approx(1 / 256)

    def test_identity_probe_on_pure_state(self):
        from kunent import ghz

        rho = ghz(3).to_density_matrix()
        m = ProductOperator.identity(rho.dims)
        assert sandwich_trace(rho, m) == pytest.approx(1.0)

    def test_nonnegative_and_matches_dense(self, rng):
        for dims in (qubits(2), SiteDims((2, 3)), SiteDims((3, 2, 2))):
            for _ in range(10):
                rho = random_mixed_state(dims, rng)
                m = random_product_operator(dims, rng)
                value = sandwich_trace(rho, m)
                assert value >= 0.0
                dense = assemble(m)
                expected = np.trace(dense.conj().T @ rho.mat @ dense).real
                assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_rounding_below_zero_reads_zero(self):
        # lambda_min = -5e-11 is within PSD_TOL, so the state is accepted, and
        # its Tr[rho M M^dag] = rho[3, 3] = -5e-11 is rounding: it reads 0.0
        rho = DensityMatrix(qubits(2), np.diag([0.5 + 5e-11, 0.5, 0.0, -5e-11]))
        ket1 = np.array([[0, 0], [0, 1]], dtype=complex)
        value = sandwich_trace(rho, ProductOperator(qubits(2), (ket1, ket1)))
        assert value == 0.0 and not np.signbit(value)
        assert product_trace(rho, [ket1, ket1]) == -5e-11

    def test_dimension_mismatch(self, rng):
        rho = random_mixed_state(qubits(2), rng)
        m = random_product_operator(qubits(3), rng)
        with pytest.raises(ValueError, match="match"):
            sandwich_trace(rho, m)


class TestCrossTrace:
    def test_x_equals_y_collapses_to_sandwich(self, rng):
        dims = SiteDims((2, 3))
        rho = random_mixed_state(dims, rng)
        x = random_product_operator(dims, rng)
        value = cross_trace(rho, x, x)
        assert abs(value.imag) < 1e-10
        assert value.real == pytest.approx(sandwich_trace(rho, x), rel=1e-12)

    def test_ghz_noise_matrix_element(self):
        from kunent import ghz_noise_family
        from kunent.criteria import ghz_probe

        fam = ghz_noise_family(8)
        x, y = ghz_probe(fam.dims)
        for p in (0.0, 0.3, 1.0):
            value = cross_trace(fam.evaluate(p).dense(), x, y)
            assert value == pytest.approx(p / 2)

    def test_ghz_noise_dense_crosscheck_small(self, rng):
        from kunent import ghz_noise_family
        from kunent.criteria import ghz_probe

        fam = ghz_noise_family(3)
        rho = fam.evaluate(0.4).dense()
        x, y = ghz_probe(fam.dims)
        dense_val = np.trace(assemble(x).conj().T @ rho.mat @ assemble(y))
        assert cross_trace(rho, x, y) == pytest.approx(dense_val)
        assert dense_val == pytest.approx(0.2)

    def test_zero_factor_annihilates(self, rng):
        dims = qubits(2)
        rho = random_mixed_state(dims, rng)
        x = ProductOperator(dims, (np.zeros((2, 2)), I2))
        y = random_product_operator(dims, rng)
        assert cross_trace(rho, x, y) == 0.0

    def test_conjugate_symmetry(self, rng):
        dims = SiteDims((3, 2))
        rho = random_mixed_state(dims, rng)
        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)
        assert cross_trace(rho, x, y) == pytest.approx(
            np.conj(cross_trace(rho, y, x)), rel=1e-12, abs=1e-12
        )

    def test_linearity_in_state(self, rng):
        dims = qubits(2)
        rho1 = random_mixed_state(dims, rng)
        rho2 = random_mixed_state(dims, rng)
        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)
        p = 0.3
        mixed = DensityMatrix(dims, p * rho1.mat + (1 - p) * rho2.mat, _check_psd=False)
        expected = p * cross_trace(rho1, x, y) + (1 - p) * cross_trace(rho2, x, y)
        assert cross_trace(mixed, x, y) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestSweep:
    def test_matches_individual_traces(self, rng):
        dims = SiteDims((2, 3, 2))
        rho = random_mixed_state(dims, rng)
        pairs = []
        for d in dims.dims:
            u = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            v = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            pairs.append((u, v))
        sweep = subset_trace_sweep(rho, pairs)
        for mask in range(1 << dims.n):
            factors = [pairs[i][mask >> i & 1] for i in range(dims.n)]
            assert sweep[mask] == pytest.approx(
                product_trace(rho, factors), rel=1e-12, abs=1e-12
            )


    @pytest.mark.parametrize("dims,counts", [((2, 3, 2), (1, 2, 3)), ((2, 2, 2, 2), (3, 1, 2, 2)),
                                             ((3, 2), (2, 3))])
    def test_mixed_choice_counts_match_assembled(self, rng, dims, counts):
        # entry index in mixed radix, site 1 least significant
        dims = SiteDims(dims)
        z = rng.standard_normal(dims.total_dim) + 1j * rng.standard_normal(dims.total_dim)
        psi = PureState(dims, z / np.linalg.norm(z))
        choices = [[rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    for _ in range(c)] for d, c in zip(dims.dims, counts)]
        dense = random_mixed_state(dims, rng)
        noise = np.eye(dims.total_dim) / dims.total_dim
        for rho, mat in ((dense, dense.mat), (psi, psi.to_density_matrix().mat),
                         (WhiteNoise(dims), noise)):
            sweep = subset_trace_sweep(rho, choices)
            assert sweep.shape == (np.prod(counts),)
            for index, value in enumerate(sweep):
                picks = np.unravel_index(index, counts[::-1])[::-1]
                op = ProductOperator(dims, tuple(c[i] for c, i in zip(choices, picks)))
                want = np.trace(mat @ assemble(op))
                assert value == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestKernelArguments:
    """Every kernel rejects a wrong factor count or a factor of the wrong
    shape, on each representation, through one check."""

    DIMS = SiteDims((2, 3))

    def _states(self, rng):
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        return [random_mixed_state(self.DIMS, rng), PureState(self.DIMS, z / np.linalg.norm(z)),
                WhiteNoise(self.DIMS)]

    @pytest.mark.parametrize("factors", [
        [I2], [I2, np.eye(3), I2], [np.eye(3), I2], [I2, I2], [I2, np.ones(3)],
    ], ids=["too-few", "too-many", "swapped", "wrong-dim", "not-square"])
    def test_product_trace_and_sweep(self, rng, factors):
        # the white-noise sweep once checked no shape: 3 x 3 factors on two qubits gave [2.25] * 4
        for rho in self._states(rng):
            with pytest.raises(ValueError, match="do not match"):
                product_trace(rho, factors)
            with pytest.raises(ValueError, match="do not match"):
                subset_trace_sweep(rho, [(g, g) for g in factors])
            with pytest.raises(ValueError, match="do not match"):
                subset_trace_sweep(rho, [(g,) * (i + 1) for i, g in enumerate(factors)])

    def test_site_without_a_choice(self, rng):
        for rho in self._states(rng):
            with pytest.raises(ValueError, match=r"\[\] do not match site 2"):
                subset_trace_sweep(rho, [(I2,), ()])

    @pytest.mark.parametrize("rep", ["white-noise", "pure", "dense"])
    @pytest.mark.parametrize("baseline,message", [
        ([I2] * 4, "4 sites of factors do not match the state's 3 sites"),
        ([I2] * 2, "2 sites of factors do not match the state's 3 sites"),
        ([np.eye(3)] * 3, r"factor shapes \[\(3, 3\)\] do not match site 1 of dimension 2"),
    ], ids=["too-many", "too-few", "wrong-shape"])
    def test_pair_blocks(self, rep, baseline, message):
        # pair blocks once took these unchecked: on white noise, 4, 2 and 3 x 3
        # identity factors gave block traces of 2.0, 0.5 and 1.5 instead of
        # 1.0; a pure or dense state ignored a 4th factor and met the others
        # with a numpy IndexError or reshape error
        from kunent import ghz

        rho = {"white-noise": WhiteNoise(qubits(3)), "pure": ghz(3),
               "dense": ghz(3).to_density_matrix()}[rep]
        with pytest.raises(ValueError, match=rf"^{message}$"):
            pair_blocks(rho, baseline)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3, 2)])
    def test_operators_on_other_sites(self, rng, dims):
        ok = random_product_operator(self.DIMS, rng)
        wrong = random_product_operator(SiteDims(dims), rng)
        for rho in self._states(rng):
            with pytest.raises(ValueError, match="do not match"):
                sandwich_trace(rho, wrong)
            with pytest.raises(ValueError, match="do not match"):
                cross_trace(rho, wrong, wrong)
            for x, y in ((ok, wrong), (wrong, ok)):
                with pytest.raises(ValueError):
                    cross_trace(rho, x, y)


class TestComponentKernels:
    """Pure-state and white-noise kernels against the dense kernels."""

    DIMS = SiteDims((2, 3, 4))

    def _states(self, rng, dims=DIMS):
        d = dims.total_dim
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi = PureState(dims, z / np.linalg.norm(z))
        noise = DensityMatrix(dims, np.eye(d, dtype=complex) / d, _check_psd=False)
        return [(psi, psi.to_density_matrix()), (WhiteNoise(dims), noise)]

    def _factors(self, rng, dims=DIMS):
        return [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for d in dims.dims]

    def test_product_trace_and_sweep(self, rng):
        for state, dense in self._states(rng):
            factors = self._factors(rng)
            assert product_trace(state, factors) == pytest.approx(
                product_trace(dense, factors), rel=1e-12, abs=1e-12)
            pairs = list(zip(factors, self._factors(rng)))
            assert_allclose(subset_trace_sweep(state, pairs), subset_trace_sweep(dense, pairs),
                            rtol=1e-12, atol=1e-12)

    def test_white_noise_trace_is_product_of_local_traces(self, rng):
        factors = self._factors(rng)
        expected = np.prod([np.trace(f) for f in factors]) / self.DIMS.total_dim
        assert product_trace(WhiteNoise(self.DIMS), factors) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("i,j", [(0, 1), (0, 2), (1, 2)])
    def test_pair_reduced(self, rng, i, j):
        # pair blocks need sites of one dimension; block p is pair (i, j)
        # in np.triu_indices order
        dims, p = qudits(3, 3), [(0, 1), (0, 2), (1, 2)].index((i, j))
        for state, dense in self._states(rng, dims):
            baseline = self._factors(rng, dims)
            assert_allclose(pair_blocks(state, baseline)[p],
                            pair_blocks(dense, baseline)[p], rtol=1e-12, atol=1e-12)

