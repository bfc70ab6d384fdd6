"""Acceptance suite: one test per primary criterion, each printing a
pass/fail line with the measured figure of merit.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from kunent import (
    SiteDims,
    Theorem1Evaluator,
    Theorem2Evaluator,
    bisection_threshold,
    example2_closed_form,
    ghz_noise_family,
    ghz_probe,
    pq_boundary_scan,
    qubits,
    random_k_unentangled,
    w_noise_family,
    w_probe,
)
from kunent.criteria import PermutationAction, swap_on_subset, w_tilde_probe
from kunent.oracle import doubled_lhs, doubled_term
from kunent.tensor import cross_trace, sandwich_trace
from kunent.thresholds import FamilyMargin

from conftest import random_mixed_state, random_product_operator

TABLE1_PUBLISHED = (0.4980, 0.2485, 0.1241, 0.0620, 0.0310, 0.0155, 0.0078)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_table1_reproduction():
    """8-qubit GHZ thresholds match the published row within 1e-4, < 5 s."""
    start = time.perf_counter()
    family = ghz_noise_family(8)
    evaluator = Theorem1Evaluator(*ghz_probe(family.dims))
    computed = [
        bisection_threshold(family, evaluator, k).p_star for k in range(1, 8)
    ]
    elapsed = time.perf_counter() - start
    max_dev = max(abs(c - p) for c, p in zip(computed, TABLE1_PUBLISHED))
    ok = max_dev <= 1e-4 and elapsed < 5.0
    _report(
        "table-1-reproduction",
        ok,
        f"max|p_k - published| = {max_dev:.2e} (tol 1e-4), runtime {elapsed:.2f}s (< 5s)",
    )
    assert max_dev <= 1e-4
    assert elapsed < 5.0


def test_example2_formula():
    """Bisected site-probe thresholds on rho(p,0) match the closed form
    within 1e-6 for (N,d,k) in {3,4,5} x {3,4} x {1..N-1}, < 60 s total."""
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for n in (3, 4, 5):
        for d in (3, 4):
            family = w_noise_family(n, d)
            evaluator = Theorem2Evaluator(*w_probe(family.dims))
            for k in range(1, n):
                res = bisection_threshold(family, evaluator, k, fixed=(0.0,))
                dev = abs(res.p_star - example2_closed_form(n, k, d))
                worst = max(worst, dev)
                count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(
        "example-2-formula",
        ok,
        f"{count} combos, max|bisect - closed| = {worst:.2e} (tol 1e-6), "
        f"runtime {elapsed:.1f}s (< 60s)",
    )
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_oracle_equivalence():
    """Factorized term values match the literal doubled-space computation
    within 1e-10 relative over 50 seeded instances per (N,d) shape."""
    rng = np.random.default_rng(1234)
    worst = 0.0
    for n, d in ((2, 2), (2, 3), (3, 2)):
        dims = SiteDims((d,) * n)
        for _ in range(50):
            rho = random_mixed_state(dims, rng, rank=int(rng.integers(1, 4)))
            x = random_product_operator(dims, rng)
            y = random_product_operator(dims, rng)
            mask = int(rng.integers(0, 1 << n))
            alpha = PermutationAction(
                frozenset(i + 1 for i in range(n) if mask >> i & 1)
            )
            lit = doubled_term(rho, x, y, alpha)
            a, b = swap_on_subset(x, y, alpha)
            fac = sandwich_trace(rho, a) * sandwich_trace(rho, b)
            worst = max(worst, abs(lit - fac) / max(1.0, abs(fac)))

            lit_lhs = doubled_lhs(rho, x, y)
            fac_lhs = abs(cross_trace(rho, x, y)) ** 2
            worst = max(worst, abs(lit_lhs - fac_lhs) / max(1.0, abs(fac_lhs)))

            # site-probe factorizations through the same doubled oracle
            w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            i, j = (int(v) for v in rng.permutation(n)[:2])
            x_i = x.replace_factor(i + 1, w)
            x_j = x.replace_factor(j + 1, w)
            x_ij = x_i.replace_factor(j + 1, w)
            lit_pair = doubled_term(rho, x_i, x_j, PermutationAction.of(i + 1))
            fac_pair = sandwich_trace(rho, x) * sandwich_trace(rho, x_ij)
            worst = max(worst, abs(lit_pair - fac_pair) / max(1.0, abs(fac_pair)))
    ok = worst <= 1e-10
    _report("oracle-equivalence", ok, f"worst relative deviation {worst:.2e} (tol 1e-10)")
    assert worst <= 1e-10


def test_soundness_suite():
    """Zero detections over 200 seeded >= k-unentangled mixtures per
    configuration, 10 random probe choices each, both criteria."""
    rng = np.random.default_rng(777)
    configs = [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
    term_sweep = (1, 5, 20)
    detections = 0
    evaluations = 0
    worst_margin = -np.inf
    for n, k in configs:
        dims = qubits(n)
        for i in range(200):
            rho = random_k_unentangled(
                dims, k, term_sweep[i % len(term_sweep)], seed=100_000 * n + 1_000 * k + i
            )
            for _ in range(10):
                x = random_product_operator(dims, rng)
                y = random_product_operator(dims, rng)
                ev1 = Theorem1Evaluator(x, y)
                rep1 = ev1.report(ev1.traces(rho), k)
                omegas = [
                    rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                    for _ in range(int(rng.integers(1, 3)))
                ]
                ev2 = Theorem2Evaluator(x, omegas)
                rep2 = ev2.report(ev2.traces(rho), k)
                detections += rep1.detected + rep2.detected
                worst_margin = max(worst_margin, rep1.margin, rep2.margin)
                evaluations += 2
    ok = detections == 0
    _report(
        "soundness-suite",
        ok,
        f"{detections} detections over {evaluations} evaluations "
        f"(worst margin {worst_margin:.2e})",
    )
    assert detections == 0


def test_monotonicity_properties():
    """Thresholds strictly decreasing in k on both families; closed form
    decreasing in N and in d on sampled grids."""
    family = ghz_noise_family(8)
    ev1 = Theorem1Evaluator(*ghz_probe(family.dims))
    ghz_thresholds = [
        bisection_threshold(family, ev1, k).p_star for k in range(1, 8)
    ]
    ghz_mono = all(a > b for a, b in zip(ghz_thresholds, ghz_thresholds[1:]))

    w_family = w_noise_family(5, 4)
    ev2 = Theorem2Evaluator(*w_probe(w_family.dims))
    w_thresholds = [
        bisection_threshold(w_family, ev2, k, fixed=(0.0,)).p_star for k in range(1, 5)
    ]
    w_mono = all(a > b for a, b in zip(w_thresholds, w_thresholds[1:]))

    n_mono = True
    for d in (3, 4):
        for k in (1, 2, 3):
            values = [example2_closed_form(n, k, d) for n in range(max(3, k + 1), 9)]
            n_mono &= all(a > b for a, b in zip(values, values[1:]))

    d_mono = True
    for n, k in ((4, 1), (5, 2), (5, 4)):
        values = [example2_closed_form(n, k, d) for d in range(3, 7)]
        d_mono &= all(a > b for a, b in zip(values, values[1:]))

    ok = ghz_mono and w_mono and n_mono and d_mono
    _report(
        "monotonicity",
        ok,
        f"GHZ k-monotone: {ghz_mono}, W k-monotone: {w_mono}, "
        f"closed form N-monotone: {n_mono}, d-monotone: {d_mono}",
    )
    assert ghz_mono and w_mono and n_mono and d_mono


def test_fig1_properties():
    """Boundary curves for k = 1..4 at N=5, d=4: detection regions nest as
    'fewer than 1' within 'fewer than 2' within ... within 'fewer than 4'
    (boundary p_star non-increasing in k per gridline), anchored at q=0 to
    the closed form within 1e-6, and mirror-symmetric under (p <-> q) with
    the swapped probe preset."""
    grid = 16
    scans = {k: pq_boundary_scan(5, 4, k, grid) for k in (1, 2, 3, 4)}

    anchor_dev = max(
        abs(scans[k][0].star - example2_closed_form(5, k, 4)) for k in (1, 2, 3, 4)
    )
    anchored = anchor_dev <= 1e-6

    nested = True
    for j in range(grid + 1):
        stars = [scans[k][j].star for k in (1, 2, 3, 4)]
        present = [s for s in stars if s is not None]
        nested &= all(a >= b - 1e-9 for a, b in zip(present, present[1:]))
        for a, b in zip(stars, stars[1:]):
            if b is None:  # larger k undetectable implies smaller k too
                nested &= a is None

    family = w_noise_family(5, 4)
    fm_w = FamilyMargin(family, Theorem2Evaluator(*w_probe(family.dims)))
    fm_wt = FamilyMargin(family, Theorem2Evaluator(*w_tilde_probe(family.dims)))
    sym_dev = 0.0
    for p, q in ((0.1, 0.2), (0.0, 0.05), (0.3, 0.6), (0.02, 0.0)):
        for k in (1, 2, 3, 4):
            sym_dev = max(
                sym_dev, abs(fm_wt.margin([p, q], k) - fm_w.margin([q, p], k))
            )
    boundary_dev = 0.0
    for row in pq_boundary_scan(5, 4, 2, 8, probe="wtilde"):
        if row.star is None:
            continue
        boundary_dev = max(boundary_dev, abs(fm_w.margin([row.star, row.gridline], 2)))
    symmetric = sym_dev <= 1e-10 and boundary_dev <= 1e-6

    ok = anchored and nested and symmetric
    _report(
        "fig-1-properties",
        ok,
        f"q=0 anchor dev {anchor_dev:.2e} (tol 1e-6), nested: {nested}, "
        f"mirror margin dev {sym_dev:.2e}, mirrored boundary residual {boundary_dev:.2e}",
    )
    assert anchored
    assert nested
    assert symmetric
