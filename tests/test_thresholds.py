"""Threshold finding: closed forms, bisection, boundary scans."""

from __future__ import annotations

import re

import numpy as np
import pytest

from kunent import (
    COMPARISON_THRESHOLDS_8QUBIT,
    NoiseFamily,
    ProductOperator,
    PureState,
    Theorem1Evaluator,
    Theorem2Evaluator,
    bisection_threshold,
    example2_closed_form,
    ghz_noise_closed_form,
    ghz_noise_family,
    ghz_probe,
    ghz_threshold_table,
    pq_boundary_scan,
    qubits,
    w_noise_family,
    w_probe,
)
from kunent.cli import main
from kunent.criteria import w_tilde_probe
from kunent.thresholds import (
    BoundaryPoint,
    FamilyMargin,
    boundary_scan_csv,
    threshold_table_csv,
)

TABLE1_PUBLISHED = (0.4980, 0.2485, 0.1241, 0.0620, 0.0310, 0.0155, 0.0078)


class TestGhzClosedForm:
    def test_exact_formula(self):
        # root of (2^{k+1}-2) p/2 = (2^n-2)(1-p)/2^n
        for n in (4, 8):
            for k in range(1, n):
                c = (2**n - 2) / 2**n
                lhs_coeff = 2**k - 1
                p = ghz_noise_closed_form(n, k)
                assert lhs_coeff * p == pytest.approx(c * (1 - p), rel=1e-14)

    def test_published_values(self):
        for k, published in enumerate(TABLE1_PUBLISHED, start=1):
            assert abs(ghz_noise_closed_form(8, k) - published) <= 1e-4

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            ghz_noise_closed_form(1, 1)
        with pytest.raises(ValueError):
            ghz_noise_closed_form(8, 8)
        with pytest.raises(ValueError):
            ghz_noise_closed_form(8, 0)
        # ghz_noise_closed_form(4, True) once returned 0.4667, the k = 1 value
        for k in (True, False, 2.0):
            with pytest.raises(ValueError, match=re.escape(f"k must be an integer, got {k!r}")):
                ghz_noise_closed_form(4, k)
        # ghz_noise_closed_form(3.5, 2) once returned 0.2153; no cap past the dense one
        for n in (3.5, 4.0, True):
            with pytest.raises(ValueError, match=re.escape(f"n must be an integer >= 2, got {n!r}")):
                ghz_noise_closed_form(n, 2)
        assert 0 < ghz_noise_closed_form(20, 2) < 1


class TestExample2ClosedForm:
    def test_reference_value(self):
        assert example2_closed_form(5, 4, 4) == pytest.approx(60 / 4156)

    def test_decreasing_in_k(self):
        for n, d in [(4, 3), (5, 4), (6, 3)]:
            values = [example2_closed_form(n, k, d) for k in range(1, n)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_vanishes_for_large_n(self):
        assert example2_closed_form(20, 2, 3) < example2_closed_form(10, 2, 3)
        assert example2_closed_form(20, 2, 3) < 1e-3

    def test_decreasing_in_d(self):
        for n, k in [(3, 1), (4, 2), (5, 4)]:
            values = [example2_closed_form(n, k, d) for d in range(2, 7)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            example2_closed_form(1, 1, 3)
        with pytest.raises(ValueError):
            example2_closed_form(4, 5, 3)
        with pytest.raises(ValueError):
            example2_closed_form(4, 1, 1)
        for k in (True, False, 2.0):
            with pytest.raises(ValueError, match=re.escape(f"k must be an integer, got {k!r}")):
                example2_closed_form(4, k, 3)
        # example2_closed_form(4, 2, 2.5) once returned 0.2350
        for n, d, name in ((4.0, 3, "n"), (True, 3, "n"), (4, 2.5, "d"), (4, 3.0, "d")):
            bad = n if name == "n" else d
            with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= 2, got {bad!r}")):
                example2_closed_form(n, 2, d)
        assert 0 < example2_closed_form(20, 2, 2) < 1

    def test_k_range_is_the_criterions(self):
        # k = N is outside the range the site-probe criterion is defined on
        for k in (0, 4):
            with pytest.raises(ValueError, match=f"1 <= k <= 3, got {k}"):
                example2_closed_form(4, k, 3)
        fam = w_noise_family(4, 3)
        with pytest.raises(ValueError, match="1 <= k <= 3, got 4"):
            Theorem2Evaluator(*w_probe(fam.dims)).evaluate(fam.evaluate(0.5, 0.0), 4)


class TestBisection:
    def test_ghz_k1_and_k7(self):
        fam = ghz_noise_family(8)
        ev = Theorem1Evaluator(*ghz_probe(fam.dims))
        r1 = bisection_threshold(fam, ev, 1)
        assert abs(r1.p_star - 0.4980) <= 1e-4
        r7 = bisection_threshold(fam, ev, 7)
        assert abs(r7.p_star - 0.0078) <= 1e-4

    def test_agrees_with_closed_form(self):
        fam = ghz_noise_family(8)
        ev = Theorem1Evaluator(*ghz_probe(fam.dims))
        for k in range(1, 8):
            res = bisection_threshold(fam, ev, k)
            assert abs(res.p_star - ghz_noise_closed_form(8, k)) <= 1e-6

    def test_undetectable_family_returns_none(self):
        # signal = |0..0>: the GHZ-probe cross trace vanishes identically,
        # so the margin never crosses zero anywhere on the slice
        dims = qubits(4)
        amp = np.zeros(16, dtype=complex)
        amp[0] = 1.0
        fam = NoiseFamily(dims, (PureState(dims, amp),), ("p",), "dark")
        ev = Theorem1Evaluator(*ghz_probe(dims))
        res = bisection_threshold(fam, ev, 1)
        assert res.p_star is None

    def test_residual_small_at_root(self):
        fam = ghz_noise_family(6)
        ev = Theorem1Evaluator(*ghz_probe(fam.dims))
        res = bisection_threshold(fam, ev, 2)
        assert abs(res.residual) < 1e-8

    def test_w_family_fixed_axis(self):
        fam = w_noise_family(4, 3)
        ev = Theorem2Evaluator(*w_probe(fam.dims))
        res = bisection_threshold(fam, ev, 2, fixed=(0.0,), axis=0)
        assert abs(res.p_star - example2_closed_form(4, 2, 3)) <= 1e-6

    def test_fixed_validation(self):
        fam = w_noise_family(3, 3)
        ev = Theorem2Evaluator(*w_probe(fam.dims))
        with pytest.raises(ValueError, match="fixed"):
            bisection_threshold(fam, ev, 1)

    @pytest.mark.parametrize("axis", [1.0, True, False, 2, -1])
    def test_axis_must_be_an_integer_in_range(self, axis):
        fam = w_noise_family(3, 2)
        ev = Theorem2Evaluator(*w_probe(fam.dims))
        with pytest.raises(ValueError, match=re.escape(f"axis must be an integer in 0..1, got {axis!r}")):
            bisection_threshold(fam, ev, 1, fixed=(0.1,), axis=axis)

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -0.1])
    def test_invalid_fixed_weight_raises(self, weight):
        fam = w_noise_family(3, 3)
        ev = Theorem2Evaluator(*w_probe(fam.dims))
        with pytest.raises(ValueError, match="mixture weight"):
            bisection_threshold(fam, ev, 1, fixed=(weight,))

    @pytest.mark.parametrize("params,got", [([0.2], r"\(1,\)"), ([0.1, 0.2, 0.3], r"\(3,\)"),
                                            (0.2, "a scalar")], ids=["short", "long", "scalar"])
    def test_parameter_count_checked(self, params, got):
        fam = w_noise_family(3, 3)
        fm = FamilyMargin(fam, Theorem2Evaluator(*w_probe(fam.dims)))
        with pytest.raises(ValueError, match=rf"^family takes 2 parameters, got {got}$"):
            fm.margins(params, 1)

    def test_non_finite_family_weight_raises(self):
        fam = w_noise_family(3, 3)
        fm = FamilyMargin(fam, Theorem2Evaluator(*w_probe(fam.dims)))
        with pytest.raises(ValueError, match="non-finite"):
            fm.margins([np.nan, 0.1], 1)
        with pytest.raises(ValueError, match="non-finite"):
            fm.margins([[0.2, 0.1], [0.3, np.inf]], 1)

    @pytest.mark.parametrize("scale", [1.0, 0.1, 0.01, 0.003, 0.002])
    def test_threshold_invariant_under_probe_scaling(self, scale):
        # lhs and rhs both scale as scale^2; the root must not move, however
        # small the margin's slope at it becomes
        fam = ghz_noise_family(4)
        x, y = ghz_probe(fam.dims)
        scaled = ProductOperator(x.dims, tuple(scale * f for f in x.factors))
        res = bisection_threshold(fam, Theorem1Evaluator(scaled, y), 1)
        assert res.p_star == ghz_threshold_table(4)[0][1]
        assert res.p_star == pytest.approx(ghz_noise_closed_form(4, 1), abs=1e-8)

    def test_per_tuple_variant_bisects_to_its_own_line(self):
        # the k=1 per-tuple variant crosses where |cross| = base sandwich,
        # i.e. p = N(d-1) / (d^N + N(d-1)) -- distinct from (and below) the
        # summed-form closed form, which is why the k=1 scans use the
        # summed criterion
        from kunent.criteria import Theorem2K1Evaluator

        fam = w_noise_family(5, 4)
        x, om = w_probe(fam.dims)
        res = bisection_threshold(fam, Theorem2K1Evaluator(x, om), 1, fixed=(0.0,))
        assert res.p_star == pytest.approx(15 / 1039, abs=1e-6)
        assert res.p_star < example2_closed_form(5, 1, 4)


class TestThresholdTable:
    def test_published_row(self):
        rows = ghz_threshold_table(8)
        assert [k for k, _, _ in rows] == list(range(1, 8))
        for (k, p_k, ref), published, ref_expected in zip(
            rows, TABLE1_PUBLISHED, COMPARISON_THRESHOLDS_8QUBIT
        ):
            assert abs(p_k - published) <= 1e-4
            assert ref == ref_expected

    def test_comparison_column_fits_qfi_relation(self):
        # an observed fit, not a derivation: the quantum Fisher information
        # N^2 p^2 / (p + 2 (1 - p) / 2^N) of the N = 8 GHZ noise family for
        # J_z, set equal to (4/5)((N - k + 1)^2 + k - 1), has the published
        # value as its root within 1e-4 (the largest gap, 7.9e-5, at k = 6)
        n = 8
        white = 2.0 / 2**n
        for k, published in enumerate(COMPARISON_THRESHOLDS_8QUBIT, 1):
            bound = 0.8 * ((n - k + 1) ** 2 + k - 1)
            # n^2 p^2 - bound (1 - white) p - bound white = 0
            b, c = bound * (1 - white), bound * white
            root = (b + np.sqrt(b * b + 4 * n * n * c)) / (2 * n * n)
            assert abs(root - published) <= 1e-4, (k, root, published)

    def test_strictly_decreasing(self):
        rows = ghz_threshold_table(8)
        values = [p for _, p, _ in rows]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_other_n_has_no_reference(self):
        rows = ghz_threshold_table(4)
        assert all(ref is None for _, _, ref in rows)
        for k, p_k, _ in rows:
            assert abs(p_k - ghz_noise_closed_form(4, k)) <= 1e-6

    @pytest.mark.parametrize("n", range(2, 13))
    def test_rows_match_bisection_threshold_bit_for_bit(self, n):
        # the table bisects every k in one batch
        fam = ghz_noise_family(n)
        ev = Theorem1Evaluator(*ghz_probe(fam.dims))
        for k, p_k, _ in ghz_threshold_table(n):
            assert p_k == bisection_threshold(fam, ev, k).p_star

    def test_csv_format(self):
        text = threshold_table_csv(ghz_threshold_table(8))
        lines = text.strip().split("\n")
        assert lines[0] == "k,p_k,p_k_reference"
        assert len(lines) == 8
        assert lines[1].startswith("1,0.498039")


class TestBoundaryScan:
    def test_q0_anchor_matches_closed_form(self):
        for k in (1, 2, 3, 4):
            rows = pq_boundary_scan(5, 4, k, grid=4)
            anchor = rows[0]
            assert anchor.gridline == 0.0
            assert abs(anchor.star - example2_closed_form(5, k, 4)) <= 1e-6

    def test_regions_nest_with_k(self):
        grids = {k: pq_boundary_scan(5, 4, k, grid=8) for k in (1, 2, 3, 4)}
        for j in range(9):
            stars = [grids[k][j].star for k in (1, 2, 3, 4)]
            present = [s for s in stars if s is not None]
            # boundary moves to smaller p as k grows; a missing crossing can
            # only happen for smaller k (smaller detection region)
            assert all(a >= b - 1e-9 for a, b in zip(present, present[1:]))
            for a, b in zip(stars, stars[1:]):
                if b is None:
                    assert a is None

    def test_wtilde_scan_mirrors_w_scan(self):
        k = 2
        rows_wt = pq_boundary_scan(5, 4, k, grid=5, probe="wtilde")
        fam = w_noise_family(5, 4)
        fm_w = FamilyMargin(fam, Theorem2Evaluator(*w_probe(fam.dims)))
        fm_wt = FamilyMargin(fam, Theorem2Evaluator(*w_tilde_probe(fam.dims)))
        # margin identity under (p <-> q)
        for p, q in [(0.1, 0.2), (0.0, 0.05), (0.3, 0.3)]:
            assert fm_wt.margin([p, q], k) == pytest.approx(
                fm_w.margin([q, p], k), abs=1e-10
            )
        # mirrored boundary points sit on the w-probe boundary
        for row in rows_wt:
            if row.star is None:
                continue
            assert abs(fm_w.margin([row.star, row.gridline], k)) <= 1e-6

    @pytest.mark.parametrize("probe,axis", [("w", 0), ("wtilde", 1)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rows_match_bisection_threshold(self, probe, axis, k):
        fam = w_noise_family(4, 3)
        preset = w_probe if probe == "w" else w_tilde_probe
        ev = Theorem2Evaluator(*preset(fam.dims))
        rows = pq_boundary_scan(4, 3, k, 8, probe=probe)
        assert [r.gridline for r in rows] == [j / 8 for j in range(9)]
        for row in rows:
            res = bisection_threshold(fam, ev, k, fixed=(row.gridline,), axis=axis)
            assert res.p_star == row.star
            assert np.array_equal(res.residual, row.residual, equal_nan=True)

    @pytest.mark.parametrize("probe", ["w", "wtilde"])
    def test_many_k_match_single_k_scans(self, probe):
        rows = pq_boundary_scan(5, 3, [1, 2, 3, 4], 10, probe=probe)
        singles = [row for k in (1, 2, 3, 4) for row in pq_boundary_scan(5, 3, k, 10, probe=probe)]
        assert len(rows) == 44
        for got, want in zip(rows, singles):
            assert (got.k, got.gridline, got.star) == (want.k, want.gridline, want.star)
            assert np.array_equal(got.residual, want.residual, equal_nan=True)

    @pytest.mark.parametrize("grid", [2.5, True, 0, np.float64(3.0)])
    def test_grid_must_be_a_positive_integer(self, grid, monkeypatch):
        # checked before the family is built
        import kunent.thresholds as th

        monkeypatch.setattr(th, "w_noise_family", None)
        with pytest.raises(ValueError, match=re.escape(f"grid must be an integer >= 1, got {grid!r}")):
            pq_boundary_scan(4, 2, 1, grid)

    @pytest.mark.parametrize("k,message", [([1, 1.5], r"integer, got array\(\[1. , 1.5\]\)"),
                                           ([1, 4], "1 <= k <= 3, got 4")])
    def test_k_checked_as_given(self, k, message):
        with pytest.raises(ValueError, match=message):
            pq_boundary_scan(4, 2, k, 2)

    def test_probe_must_be_a_scan_preset(self):
        with pytest.raises(ValueError, match=r"^probe must be 'w' or 'wtilde', got 'x'$"):
            pq_boundary_scan(4, 2, 1, 2, probe="x")

    def test_gridline_one_has_no_crossing(self):
        rows = pq_boundary_scan(4, 3, 1, grid=2)
        assert rows[-1].gridline == 1.0
        assert rows[-1].star is None

    def test_csv_deterministic(self):
        rows = pq_boundary_scan(4, 3, 2, grid=3)
        text1 = boundary_scan_csv(rows)
        text2 = boundary_scan_csv(pq_boundary_scan(4, 3, 2, grid=3))
        assert text1 == text2
        lines = text1.strip().split("\n")
        assert lines[0] == "k,q,p_star,margin_residual"
        assert lines[-1].endswith("none,none") or "," in lines[-1]

    def test_none_formatting(self):
        rows = [BoundaryPoint(k=1, gridline=1.0, star=None, residual=float("nan"))]
        text = boundary_scan_csv(rows)
        assert text.strip().split("\n")[1] == "1,1,none,none"

    @pytest.mark.parametrize("probe,header", [("w", "k,q,p_star,margin_residual"),
                                              ("wtilde", "k,p,q_star,margin_residual")])
    def test_csv_header_names_the_bisected_weight(self, probe, header):
        # a wtilde scan bisects q along p gridlines, as `fig1 --probe wtilde` prints
        rows = pq_boundary_scan(4, 3, 2, grid=2, probe=probe)
        assert boundary_scan_csv(rows, probe).split("\n", 1)[0] == header
        with pytest.raises(ValueError, match=r"^probe must be 'w' or 'wtilde', got 'x'$"):
            boundary_scan_csv(rows, "x")


class TestScanWork:
    """Each threshold command bisects in as few batches as the scan allows."""

    @staticmethod
    def count(monkeypatch, name):
        calls = []
        original = getattr(FamilyMargin, name)

        def counted(self, *args, **kwargs):
            calls.append(name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(FamilyMargin, name, counted)
        return calls

    def test_table1_bisects_every_k_at_once(self, monkeypatch, capsys):
        margins = self.count(monkeypatch, "margins")
        assert main(["table1", "--n", "10"]) == 0
        # two ends, 27 halvings of [0, 1] down to 1e-8, one root evaluation
        assert len(margins) <= 32

    def test_fig1_builds_one_family_margin(self, monkeypatch, capsys):
        builds = self.count(monkeypatch, "__init__")
        margins = self.count(monkeypatch, "margins")
        for probe in ("w", "wtilde"):
            builds.clear()
            margins.clear()
            assert main(["fig1", "--n", "5", "--d", "4", "--grid", "200", "--probe", probe]) == 0
            assert len(builds) == 1
            # every k's gridlines bisected in one batch, as table1 bisects its k
            assert len(margins) <= 32

    @staticmethod
    def count_rows(monkeypatch):
        """[calls, rows] of `FamilyMargin.margins`, counted as they happen."""
        counts = [0, 0]
        original = FamilyMargin.margins

        def counted(self, params, k):
            counts[0] += 1
            counts[1] += len(params)
            return original(self, params, k)

        monkeypatch.setattr(FamilyMargin, "margins", counted)
        return counts

    @pytest.mark.parametrize("argv,calls,rows", [
        # plain bisection, every midpoint evaluated: 30 calls of 22,948 rows
        (["fig1"], 13, 4926),
        (["fig1", "--probe", "wtilde"], 13, 4926),
        # plain bisection: 30 calls of 210 rows
        (["table1"], 7, 46),
    ])
    def test_convex_scans_evaluate_only_inside_the_chord_bracket(self, monkeypatch, capsys,
                                                                 argv, calls, rows):
        counts = self.count_rows(monkeypatch)
        assert main(argv) == 0
        assert counts == [calls, rows]

    def test_per_tuple_variant_evaluates_every_midpoint(self, monkeypatch):
        # its margin is not convex: two ends, 27 halvings of [0, 1], the root
        from kunent.criteria import Theorem2K1Evaluator

        fam = w_noise_family(5, 4)
        counts = self.count_rows(monkeypatch)
        bisection_threshold(fam, Theorem2K1Evaluator(*w_probe(fam.dims)), 1, fixed=(0.0,))
        assert counts == [30, 30]
