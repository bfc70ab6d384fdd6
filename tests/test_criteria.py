"""Criterion evaluation: subset swaps, margins, presets, report contract."""

from __future__ import annotations

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kunent import (
    ProductOperator,
    PureState,
    SiteDims,
    Theorem1Evaluator,
    Theorem2Evaluator,
    ghz_noise_family,
    ghz_probe,
    qubits,
    qudits,
    sandwich_trace,
    swap_on_subset,
    w_noise_family,
    w_probe,
    w_state,
)
from kunent.config import DETECTION_TOL, summation_gamma
from kunent.criteria import Theorem2K1Evaluator, Theorem2Traces, certified
from kunent.tensor import DensityMatrix, WhiteNoise
from kunent.thresholds import FamilyMargin, example2_closed_form

from conftest import random_mixed_state, random_product_operator, random_pure_product

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
RAISE = np.array([[0, 0], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def theorem1_term(rho, x, y, alpha) -> float:
    """One rhs term of the subset-swap inequality, sqrt(Tr[rho A A^dag] *
    Tr[rho B B^dag]) for (A, B) = swap_on_subset(x, y, alpha)."""
    a, b = swap_on_subset(x, y, alpha)
    return float(np.sqrt(max(sandwich_trace(rho, a), 0.0) * max(sandwich_trace(rho, b), 0.0)))


class TestSwapOnSubset:
    def test_empty_subset_is_identity(self, rng):
        dims = qubits(3)
        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)
        a, b = swap_on_subset(x, y, set())
        for fa, fx in zip(a.factors, x.factors):
            assert_allclose(fa, fx)
        for fb, fy in zip(b.factors, y.factors):
            assert_allclose(fb, fy)

    def test_full_subset_swaps(self, rng):
        dims = qubits(3)
        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)
        a, b = swap_on_subset(x, y, {1, 2, 3})
        for fa, fy in zip(a.factors, y.factors):
            assert_allclose(fa, fy)
        for fb, fx in zip(b.factors, x.factors):
            assert_allclose(fb, fx)

    def test_middle_site(self, rng):
        dims = qubits(3)
        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)
        a, b = swap_on_subset(x, y, {2})
        assert_allclose(a.factors[0], x.factors[0])
        assert_allclose(a.factors[1], y.factors[1])
        assert_allclose(a.factors[2], x.factors[2])
        assert_allclose(b.factors[0], y.factors[0])
        assert_allclose(b.factors[1], x.factors[1])
        assert_allclose(b.factors[2], y.factors[2])

    def test_x_and_y_on_different_dims(self, rng):
        x = random_product_operator(qubits(2), rng)
        y = random_product_operator(SiteDims((2, 3)), rng)
        with pytest.raises(ValueError, match=r"^x and y must share site dimensions$"):
            swap_on_subset(x, y, {1})

    def test_out_of_range(self, rng):
        # sites are integers in 1..N: 0, N + 1, 1.9 and True are rejected, not
        # truncated or read as site 1
        dims = qubits(2)
        x = random_product_operator(dims, rng)
        for alpha in ({5}, {0}, {3}, {1.9}, {1, 2.0}, {"1"}, {True}, {False}):
            with pytest.raises(ValueError, match=r"out of range 1\.\.2"):
                swap_on_subset(x, x, alpha)

    @pytest.mark.parametrize("alpha", [[2], (2,), frozenset({2}), range(2, 3), {np.int64(2)}])
    def test_any_collection_of_sites(self, rng, alpha):
        dims = qubits(3)
        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)
        a, b = swap_on_subset(x, y, alpha)
        ref_a, ref_b = swap_on_subset(x, y, {2})
        for got, ref in zip(a.factors + b.factors, ref_a.factors + ref_b.factors):
            assert np.array_equal(got, ref)


class TestSiteSubstitution:
    def test_identity_substitution(self):
        dims = qubits(3)
        x = ProductOperator.identity(dims)
        out = x.replace_factor(2, I2)
        for f in out.factors:
            assert_allclose(f, I2)

    def test_single_substitution(self):
        dims = qubits(3)
        x = ProductOperator(dims, (KET0, KET0, KET0))
        out = x.replace_factor(2, RAISE)
        assert_allclose(out.factors[0], KET0)
        assert_allclose(out.factors[1], RAISE)
        assert_allclose(out.factors[2], KET0)

    def test_double_substitution_commutes(self, rng):
        dims = qubits(3)
        x = random_product_operator(dims, rng)
        w1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ab = x.replace_factor(1, w1).replace_factor(3, w2)
        ba = x.replace_factor(3, w2).replace_factor(1, w1)
        for fa, fb in zip(ab.factors, ba.factors):
            assert_allclose(fa, fb, atol=0)

    def test_dimension_mismatch(self):
        x = ProductOperator.identity(qubits(2))
        with pytest.raises(ValueError, match="must have shape"):
            x.replace_factor(1, np.eye(3))


class TestTheorem1Term:
    def test_pure_product_x_equals_y(self, rng):
        dims = qubits(3)
        amp = random_pure_product(dims, rng)
        rho = PureState(dims, amp).to_density_matrix()
        x = random_product_operator(dims, rng)
        term = theorem1_term(rho, x, x, {1})
        assert term == pytest.approx(sandwich_trace(rho, x), rel=1e-10)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.9])
    def test_ghz_noise_hand_value(self, p):
        # every proper-subset swap lands on a mixed-bit basis projector,
        # picking up only the white-noise weight: (1-p)/2^n
        for n in (3, 8):
            fam = ghz_noise_family(n)
            rho = fam.evaluate(p).dense()
            x, y = ghz_probe(fam.dims)
            term = theorem1_term(rho, x, y, {1})
            assert term == pytest.approx((1 - p) / 2**n, rel=1e-12)

    def test_complement_symmetry_exact(self, rng):
        dims = qubits(4)
        rho = random_mixed_state(dims, rng)
        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)
        t1 = theorem1_term(rho, x, y, {1, 3})
        t2 = theorem1_term(rho, x, y, {2, 4})
        assert t1 == t2  # same two sandwich factors, same multiset


class TestTheorem1Margin:
    def test_matches_direct_term_sum(self, rng):
        for dims in (qubits(3), SiteDims((2, 3, 2)), qubits(4)):
            rho = random_mixed_state(dims, rng)
            x = random_product_operator(dims, rng)
            y = random_product_operator(dims, rng)
            n = dims.n
            rep = Theorem1Evaluator(x, y).evaluate(rho, 1)
            direct = 0.0
            for mask in range(1, (1 << n) - 1):
                alpha = {i + 1 for i in range(n) if mask >> i & 1}
                direct += theorem1_term(rho, x, y, alpha)
            assert rep.rhs == pytest.approx(direct, rel=1e-10)

    def test_ghz_table_boundary(self):
        fam = ghz_noise_family(8)
        x, y = ghz_probe(fam.dims)
        # published threshold p_1 = 0.4980 (4-decimal rounding)
        assert Theorem1Evaluator(x, y).evaluate(fam.evaluate(0.4981), 1).detected
        assert not Theorem1Evaluator(x, y).evaluate(fam.evaluate(0.4979), 1).detected
        # k = 3: 0.1241
        assert Theorem1Evaluator(x, y).evaluate(fam.evaluate(0.1243), 3).detected
        assert not Theorem1Evaluator(x, y).evaluate(fam.evaluate(0.1239), 3).detected

    def test_product_state_soundness(self, rng):
        dims = qubits(3)
        for _ in range(10):
            amp = random_pure_product(dims, rng)
            rho = PureState(dims, amp).to_density_matrix()
            x = random_product_operator(dims, rng)
            y = random_product_operator(dims, rng)
            rep = Theorem1Evaluator(x, y).evaluate(rho, 2)
            assert not rep.detected

    def test_scaling_covariance(self, rng):
        dims = qubits(3)
        rho = random_mixed_state(dims, rng)
        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)
        c, cp = 2.5 - 1.5j, -0.25 + 3j
        x_scaled = ProductOperator(dims, (c * x.factors[0],) + x.factors[1:])
        y_scaled = ProductOperator(dims, y.factors[:2] + (cp * y.factors[2],))
        base = Theorem1Evaluator(x, y).evaluate(rho, 2)
        scaled = Theorem1Evaluator(x_scaled, y_scaled).evaluate(rho, 2)
        factor = abs(c) * abs(cp)
        assert scaled.margin == pytest.approx(base.margin * factor, rel=1e-10)
        assert scaled.detected == base.detected

    def test_monotone_after_sign_change(self):
        # margin along rho(p) is affine with the GHZ preset: one crossing
        fam = ghz_noise_family(4)
        x, y = ghz_probe(fam.dims)
        fm = FamilyMargin(fam, Theorem1Evaluator(x, y))
        grid = np.linspace(0.0, 1.0, 101)
        margins = [fm.margin([p], 2) for p in grid]
        signs = np.sign(margins)
        crossings = np.sum(np.abs(np.diff(signs)) > 0)
        assert crossings == 1
        after = margins[int(np.argmax(signs > 0)) :]
        assert all(b >= a - 1e-12 for a, b in zip(after, after[1:]))

    def test_monotone_w_preset(self):
        fam = w_noise_family(3, 3)
        fm = FamilyMargin(fam, Theorem2Evaluator(*w_probe(fam.dims)))
        grid = np.linspace(0.0, 1.0, 101)
        margins = [fm.margin([p, 0.0], 2) for p in grid]
        signs = np.sign(margins)
        assert np.sum(np.abs(np.diff(signs)) > 0) == 1
        after = margins[int(np.argmax(signs > 0)) :]
        assert all(b >= a - 1e-12 for a, b in zip(after, after[1:]))

    def test_subset_enumeration_budget(self, monkeypatch):
        from kunent.config import DIM_CAP_ENV_VAR

        monkeypatch.setenv(DIM_CAP_ENV_VAR, str(2**18))
        dims = qubits(17)
        eye = np.eye(2, dtype=complex)
        x = ProductOperator(dims, (eye,) * 17)
        with pytest.raises(ValueError, match="budget"):
            Theorem1Evaluator(x, x)

    def test_x_and_y_on_different_dims(self, rng):
        x = random_product_operator(qubits(3), rng)
        y = random_product_operator(qubits(2), rng)
        with pytest.raises(ValueError, match=r"^x and y must share site dimensions$"):
            Theorem1Evaluator(x, y)

    def test_k_out_of_range(self, rng):
        dims = qubits(3)
        rho = random_mixed_state(dims, rng)
        x = random_product_operator(dims, rng)
        with pytest.raises(ValueError, match="k must"):
            Theorem1Evaluator(x, x).evaluate(rho, 3)

    def test_degenerate_probe_flagged(self, rng):
        dims = qubits(2)
        rho = random_mixed_state(dims, rng)
        zero = ProductOperator(dims, (np.zeros((2, 2)), I2))
        y = random_product_operator(dims, rng)
        rep = Theorem1Evaluator(zero, y).evaluate(rho, 1)
        assert rep.degenerate
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert not rep.detected


class TestTheorem2Margin:
    def test_w_threshold_boundary(self):
        fam = w_noise_family(5, 4)
        x, om = w_probe(fam.dims)
        theta = example2_closed_form(5, 4, 4)  # 60/4156
        assert theta == pytest.approx(60 / 4156)
        assert Theorem2Evaluator(x, om).evaluate(fam.evaluate(0.02, 0.0), 4).detected
        assert not Theorem2Evaluator(x, om).evaluate(fam.evaluate(0.01, 0.0), 4).detected

    def test_rejects_unequal_dims(self, rng):
        dims = SiteDims((2, 3))
        rho = random_mixed_state(dims, rng)
        x = random_product_operator(dims, rng)
        with pytest.raises(ValueError, match="unequal"):
            Theorem2Evaluator(x, [np.eye(2)]).evaluate(rho, 1)

    def test_k_range(self, rng):
        dims = qubits(3)
        rho = random_mixed_state(dims, rng)
        x = random_product_operator(dims, rng)
        om = [np.eye(2)]
        with pytest.raises(ValueError, match="k must"):
            Theorem2Evaluator(x, om).evaluate(rho, 3)
        with pytest.raises(ValueError, match="k must"):
            Theorem2Evaluator(x, om).evaluate(rho, 0)

    def test_omega_must_not_be_empty(self):
        x, _ = w_probe(qubits(3))
        with pytest.raises(ValueError, match="omega must contain at least one operator"):
            Theorem2Evaluator(x, [])

    @pytest.mark.parametrize("theorem", [1, 2])
    def test_state_dims_must_match_probe_dims(self, theorem):
        x, y = ghz_probe(qubits(3))
        ev = Theorem1Evaluator(x, y) if theorem == 1 else Theorem2Evaluator(x, [RAISE])
        with pytest.raises(ValueError, match=r"state dims \(2, 2\) do not match probe dims \(2, 2, 2\)"):
            ev.evaluate(ghz_noise_family(2).evaluate(0.5), 1)

    def test_omega_shape_validated(self, rng):
        dims = qubits(3)
        rho = random_mixed_state(dims, rng)
        x = random_product_operator(dims, rng)
        with pytest.raises(ValueError, match="omega"):
            Theorem2Evaluator(x, [np.eye(3)]).evaluate(rho, 1)

    def test_product_state_soundness_all_k(self, rng):
        dims = qubits(4)
        for _ in range(5):
            amp = random_pure_product(dims, rng)
            rho = PureState(dims, amp).to_density_matrix()
            x = random_product_operator(dims, rng)
            om = [
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(2)
            ]
            for k in (1, 2, 3):
                assert not Theorem2Evaluator(x, om).evaluate(rho, k).detected

    def test_traces_match_direct_evaluation(self, rng):
        # cross-check the reduced-block fast path against naive dense traces
        from kunent import cross_trace

        dims = qudits(3, 3)
        rho = random_mixed_state(dims, rng)
        x = random_product_operator(dims, rng)
        om = [
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(2)
        ]
        ev = Theorem2Evaluator(x, om)
        tr = ev.traces(rho)
        for s in range(2):
            for t in range(2):
                for i in range(3):
                    for j in range(3):
                        if i == j:
                            continue
                        x_i = x.replace_factor(i + 1, om[s])
                        x_j = x.replace_factor(j + 1, om[t])
                        assert tr.cross[s, t, i, j] == pytest.approx(
                            cross_trace(rho, x_i, x_j), rel=1e-10, abs=1e-12
                        )
                        x_ij = x_i.replace_factor(j + 1, om[t])
                        assert tr.pair[s, t, i, j] == pytest.approx(
                            sandwich_trace(rho, x_ij), rel=1e-10, abs=1e-12
                        )
            for i in range(3):
                x_i = x.replace_factor(i + 1, om[s])
                assert tr.site[s, i] == pytest.approx(
                    sandwich_trace(rho, x_i), rel=1e-10, abs=1e-12
                )
        assert tr.base == pytest.approx(sandwich_trace(rho, x), rel=1e-10)


class TestTheorem2K1:
    def test_pure_w_hand_example(self):
        # x_i = |0><0|, omega = {|1><0|}: the cross trace between any two
        # substituted probes picks one W matrix element 1/3; the bound side
        # vanishes because W has no all-zeros amplitude
        psi = w_state(3, 2)
        x = ProductOperator(psi.dims, (KET0,) * 3)
        rep = Theorem2K1Evaluator(x, [RAISE]).evaluate(psi.to_density_matrix(), 1)
        assert rep.lhs == pytest.approx(1 / 9)
        assert rep.rhs == 0.0
        assert rep.detected

    def test_full_product_soundness(self, rng):
        dims = qubits(3)
        for _ in range(10):
            amp = random_pure_product(dims, rng)
            rho = PureState(dims, amp).to_density_matrix()
            x = random_product_operator(dims, rng)
            om = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))]
            rep = Theorem2K1Evaluator(x, om).evaluate(rho, 1)
            assert not rep.detected
            assert rep.margin <= 1e-12

    def test_detects_w_noise_above_line(self):
        fam = w_noise_family(5, 4)
        x, om = w_probe(fam.dims)
        rep = Theorem2K1Evaluator(x, om).evaluate(fam.evaluate(0.10, 0.0), 1)
        assert rep.detected

    def test_known_unsoundness_on_same_block_pairs(self):
        # |1> x Bell contains one unentangled particle yet violates the
        # per-tuple bound for the same-block pair: documents why this
        # variant is excluded from the k=1 soundness sweep
        dims = qubits(3)
        bell = np.zeros(4, dtype=complex)
        bell[1] = bell[2] = 1 / np.sqrt(2)
        amp = np.kron(np.array([0, 1], dtype=complex), bell)
        rho = PureState(dims, amp).to_density_matrix()
        x = ProductOperator.identity(dims)
        lower = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
        rep = Theorem2K1Evaluator(x, [lower]).evaluate(rho, 1)
        assert rep.detected
        assert rep.margin == pytest.approx(0.25)

    def test_defined_only_at_k_1(self):
        x, om = w_probe(qubits(3))
        ev = Theorem2K1Evaluator(x, om)
        with pytest.raises(ValueError, match="defined for k=1, got k=2"):
            ev.report(ev.traces(w_state(3, 2)), 2)

    def test_defined_only_at_k_1_per_row(self):
        fam = w_noise_family(3, 2)
        fm = FamilyMargin(fam, Theorem2K1Evaluator(*w_probe(fam.dims)))
        rows = [[0.2, 0.1], [0.3, 0.3], [0.5, 0.0]]
        ones = fm.margins(rows, np.array([1, 1, 1]))
        assert np.array_equal(ones.margin, fm.margins(rows, 1).margin)
        with pytest.raises(ValueError, match="defined for k=1, got k=2"):
            fm.margins(rows, np.array([1, 2, 3]))

    def test_margin_is_largest_tuple_margin(self, rng):
        dims = qubits(3)
        rho = random_mixed_state(dims, rng)
        x = random_product_operator(dims, rng)
        om = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))]
        rep = Theorem2K1Evaluator(x, om).evaluate(rho, 1)
        per_tuple = [v for label, v in rep.terms if label.startswith("margin[")]
        assert rep.margin == pytest.approx(max(per_tuple))


class TestKRange:
    """Every criterion checks k with one rule, per row for a batch."""

    @pytest.mark.parametrize("k,bad", [
        (0, 0), (4, 4), (np.array([1, 3, 5, 0]), 5), (np.array([2, -1]), -1),
    ])
    def test_first_bad_k_named(self, k, bad):
        fam = ghz_noise_family(4)
        fm = FamilyMargin(fam, Theorem1Evaluator(*ghz_probe(fam.dims)))
        with pytest.raises(ValueError, match=rf"k must satisfy 1 <= k <= 3, got {bad}$"):
            fm.margins(np.full(np.shape(k) + (1,), 0.5), k)

    @pytest.mark.parametrize("k", [
        1.5, 2.0, np.float64(1.0), "1", np.array([1.5]), np.array([1.0, 2.0]), True, False,
    ], ids=["1.5", "2.0", "np1.0", "str", "array1.5", "float-array", "True", "False"])
    def test_non_integer_k_rejected(self, k):
        # at k = 1.5 the GHZ point once read "detected" (margin 0.0712, and
        # -0.219 at k = 1): a certificate for a k that has no meaning; k =
        # True once gave a report with k=True, detected=True
        ghz_fam, w_fam = ghz_noise_family(4), w_noise_family(4, 3)
        for ev, point in (
            (Theorem1Evaluator(*ghz_probe(ghz_fam.dims)), ghz_fam.evaluate(0.35)),
            (Theorem2Evaluator(*w_probe(w_fam.dims)), w_fam.evaluate(0.5, 0.0)),
            (Theorem2K1Evaluator(*w_probe(w_fam.dims)), w_fam.evaluate(0.5, 0.0)),
        ):
            with pytest.raises(ValueError, match="k must be an integer, got"):
                ev.margins(ev.traces(point), k)
            if np.ndim(k) == 0:
                with pytest.raises(ValueError, match="k must be an integer, got"):
                    ev.evaluate(point, k)

    def test_numpy_integer_k_accepted(self):
        fam = ghz_noise_family(4)
        ev = Theorem1Evaluator(*ghz_probe(fam.dims))
        traces = ev.traces(fam.evaluate(0.35))
        for k in (np.int64(2), np.array([2], dtype=np.uint8)):
            assert ev.margins(traces, k).margin == ev.margins(traces, 2).margin

    def test_each_criterion_lists_its_own_k(self):
        dims = qudits(5, 3)
        x, om = w_probe(dims)
        assert Theorem1Evaluator(*ghz_probe(dims)).ks() == [1, 2, 3, 4]
        assert Theorem2Evaluator(x, om).ks() == [1, 2, 3, 4]
        assert Theorem2K1Evaluator(x, om).ks() == [1]


def test_t2_tuple_layout_is_one_read_only_owner_per_shape():
    from kunent.criteria import _tuple_layout

    rows, cols, listed, summed = layout = _tuple_layout(4, 2)
    assert _tuple_layout(4, 2) is layout
    assert not any(a.flags.writeable for a in layout)
    assert [rows.tolist(), cols.tolist()] == [a.tolist() for a in np.triu_indices(4, 1)]
    assert sorted(listed.tolist()) == sorted(summed.tolist()) and len(listed) == 2 * 2 * 4 * 3


class TestCriterionReport:
    def test_json_schema(self, rng):
        dims = qubits(2)
        rho = random_mixed_state(dims, rng)
        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)
        rep = Theorem1Evaluator(x, y).evaluate(rho, 1)
        payload = json.loads(json.dumps(rep.to_dict()))
        assert set(payload) == {
            "theorem", "k", "lhs", "rhs", "margin", "detected", "degenerate", "terms",
        }
        assert payload["theorem"] == "T1"
        assert payload["k"] == 1
        assert isinstance(payload["terms"], list)
        assert set(payload["terms"][0]) == {"label", "value"}
        assert payload["terms"][0]["label"].startswith("alpha={")

    def test_detection_tolerance_contract(self, rng):
        # detection is the scale-aware certificate rule
        # margin > detection + gamma_m * max(scaled lhs, rhs), m = terms + D,
        # not the absolute margin > 1e-12, which rounding satisfies on
        # separable states once the probe norms are large
        dims = qubits(2)
        rho = random_mixed_state(dims, rng)
        x = random_product_operator(dims, rng)
        y = random_product_operator(dims, rng)
        rep = Theorem1Evaluator(x, y).evaluate(rho, 1)
        allowance = DETECTION_TOL + summation_gamma(2 + 4) * max(
            2 * rep.lhs, rep.rhs
        )
        assert rep.detected == (rep.margin > allowance)
        assert rep.lhs >= 0.0
        assert rep.rhs >= 0.0

    def test_margin_affine_along_family(self):
        # family evaluation path must agree with direct evaluation
        fam = w_noise_family(3, 3)
        x, om = w_probe(fam.dims)
        fm = FamilyMargin(fam, Theorem2Evaluator(x, om))
        for p, q in [(0.1, 0.0), (0.2, 0.3), (0.0, 0.9)]:
            direct = Theorem2Evaluator(x, om).evaluate(fam.evaluate(p, q), 2).margin
            assert fm.margin([p, q], 2) == pytest.approx(direct, rel=1e-10, abs=1e-12)


class TestCertificateRule:
    @pytest.mark.parametrize("scale, terms, dim", [(0.0, 1, 2), (1.0, 14, 16), (3e5, 868, 256)])
    def test_allowance_itself_is_not_a_certificate(self, scale, terms, dim):
        # the rule is strict: a margin equal to the allowance certifies nothing
        allowance = DETECTION_TOL + summation_gamma(terms + dim) * scale
        assert not certified(allowance, scale, terms, dim)
        assert certified(np.nextafter(allowance, np.inf), scale, terms, dim)

    def test_no_rounding_bound_past_unit_roundoff(self):
        assert summation_gamma(2**53 - 1) > 0
        with pytest.raises(ValueError, match=r"^no rounding bound for a sum of 9007199254740992 terms$"):
            summation_gamma(2**53)

    def test_t2_k1_positive_margin_below_allowance_is_not_a_certificate(self):
        # every tuple margin is |cross|^2 - base * pair = 1 - (1 - 2^-50) = 2^-50:
        # positive, so a bare `margin > 0` would certify, but far below the allowance
        n = 3
        cross = np.broadcast_to(1.0 - np.eye(n), (1, 1, n, n)).astype(complex)
        pair = np.full((1, 1, n, n), 1.0 - 2.0**-50)
        traces = Theorem2Traces(n, 1, cross, pair, np.zeros((1, n)), 1.0)
        ev = Theorem2K1Evaluator(ProductOperator.identity(qubits(n)), [I2])
        report = ev.report(traces, 1)
        assert report.margin == 2.0**-50
        assert not report.detected


def _factor_and_product(n, seed):
    """A complex Gaussian 2 x 2 factor a, then a fully product n-qubit pure
    state, one normalized complex Gaussian ket per site, from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    psi = np.ones(1, dtype=complex)
    for _ in range(n):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = np.kron(psi, z / np.linalg.norm(z))
    return a, PureState(qubits(n), psi)


# (n, seed, route) whose summed-T2 verdict moves when the probes are scaled
# by 2^j: a false certificate from rounding, ROADMAP item 3
_SCALE_MOVES = {(3, 5, "pure"), (3, 7, "pure"), (4, 5, "pure"), (4, 7, "dense"),
                (5, 9, "dense"), (6, 7, "dense")}


class TestCertificateSoundness:
    """No certificate on fully separable states, even where the criterion
    holds with equality and rounding alone sets the sign of the margin."""

    SCALES = (1e-3, 1.0, 1e3, 1e6)

    @staticmethod
    def _separable_states(dims, rng):
        d = dims.total_dim
        product = PureState(dims, random_pure_product(dims, rng))
        return [
            DensityMatrix(dims, np.eye(d, dtype=complex) / d, _check_psd=False),
            WhiteNoise(dims),
            product,
            product.to_density_matrix(),
        ]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_tight_subset_probe_never_certifies(self, n):
        # x = y at k = N-1: both sides equal (2^N - 2) Tr[rho XX^dag]
        dims = qubits(n)
        old_rule = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            scale = self.SCALES[seed % len(self.SCALES)]
            x = ProductOperator(dims, tuple(
                scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
                for _ in range(n)
            ))
            ev = Theorem1Evaluator(x, x)
            for rho in self._separable_states(dims, rng):
                rep = ev.report(ev.traces(rho), n - 1)
                assert not rep.detected, (seed, scale, type(rho).__name__, rep.margin)
                old_rule += rep.margin > DETECTION_TOL
        if n >= 4:
            assert old_rule > 0  # the absolute rule certified some of these

    @pytest.mark.parametrize("theorem", ["T2", "T2_k1"])
    @pytest.mark.parametrize("seed,route", [(5, "pure"), (5, "dense"), (101, "pure")])
    def test_detection_floor_is_needed(self, theorem, seed, route):
        # x = a x a with omega = {a} on a product of two qubits: every tuple
        # margin is 0, and rounding leaves a margin (9.99e-16 for T2 at seed 5,
        # 3.11e-15 at seed 101) above the gamma * scale allowance (6.3e-16,
        # 3.0e-15).  Only DETECTION_TOL refuses these false certificates;
        # interval bounds on the traces may replace it, nothing less
        a, rho = _factor_and_product(2, seed)
        if route == "dense":
            rho = rho.to_density_matrix()
        cls, terms = {"T2": (Theorem2Evaluator, 4), "T2_k1": (Theorem2K1Evaluator, 2)}[theorem]
        rep = cls(ProductOperator(rho.dims, (a, a)), [a]).evaluate(rho, 1)
        assert not rep.detected
        assert summation_gamma(terms + 4) * max(rep.lhs, rep.rhs) < rep.margin < DETECTION_TOL

    @pytest.mark.parametrize("n,seed,route", [
        pytest.param(n, seed, route, marks=[pytest.mark.xfail(strict=True, reason="ROADMAP item 3")]
                     if (n, seed, route) in _SCALE_MOVES else [])
        for n, seed in [(n, seed) for n in range(3, 7) for seed in range(20)] + [(4, 181)]
        for route in ("pure", "dense")
    ])
    def test_verdict_does_not_depend_on_the_probes_scale(self, n, seed, route):
        # x = (s a)^(x N) and omega = {s a} on the state of
        # test_detection_floor_is_needed at N qubits, summed T2 at k = N - 1:
        # scaling by s = 2^j is exact, so it must not move the verdict
        a, rho = _factor_and_product(n, seed)
        if route == "dense":
            rho = rho.to_density_matrix()
        verdicts = {
            Theorem2Evaluator(ProductOperator(rho.dims, (s * a,) * n), [s * a])
            .evaluate(rho, n - 1).detected
            for s in (0.25, 0.5, 1.0, 2.0, 4.0)
        }
        assert len(verdicts) == 1, verdicts

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_site_probes_never_certify(self, n):
        dims = qubits(n)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            states = self._separable_states(dims, rng)
            scale = self.SCALES[seed % len(self.SCALES)]
            x = ProductOperator(dims, tuple(
                scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
                for _ in range(n)
            ))
            omegas = [scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))]
            for ev, k in ((Theorem2Evaluator(x, omegas), n - 1),
                          (Theorem2K1Evaluator(x, omegas), 1)):
                for rho in states[1:3]:
                    assert not ev.report(ev.traces(rho), k).detected
