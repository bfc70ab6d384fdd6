"""Site permutation: relabelling the sites of a state together with the
probe factors leaves both criteria unchanged.

T1 sums over all subsets and T2 over all ordered site pairs, so a
permutation only reorders the summands: margins agree to rounding, and
the certificate agrees wherever the margin clears its allowance.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kunent import (
    DensityMatrix,
    ProductOperator,
    PureState,
    SiteDims,
    Theorem1Evaluator,
    Theorem2Evaluator,
    ghz_probe,
    w_probe,
    w_state,
)
from kunent.criteria import certified

from conftest import random_mixed_state


@st.composite
def cases(draw, uniform: bool):
    n = draw(st.integers(2, 4))
    if uniform:
        dims = (draw(st.sampled_from((2, 3))),) * n
    else:
        dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=n, max_size=n)))
    perm = draw(st.permutations(range(n)))
    return SiteDims(dims), perm, draw(st.integers(0, 2**32 - 1))


def states(dims: SiteDims, rng: np.random.Generator, signal: np.ndarray):
    """A dense mixed state, and a pure state near `signal` that the probes
    near its preset often detect."""
    d = dims.total_dim
    z = signal + 0.3 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    rank = int(rng.integers(1, 4))
    return [random_mixed_state(dims, rng, rank), PureState(dims, z / np.linalg.norm(z))]


def near(op: ProductOperator, rng: np.random.Generator) -> ProductOperator:
    """`op` with a random complex perturbation of each factor."""
    return ProductOperator(op.dims, tuple(
        f + 0.2 * (rng.standard_normal(f.shape) + 1j * rng.standard_normal(f.shape))
        for f in op.factors
    ))


def permuted(rho, perm):
    """`rho` with site perm[m] moved to position m."""
    dims = SiteDims(tuple(rho.dims.dims[p] for p in perm))
    n = len(perm)
    if isinstance(rho, PureState):
        amp = rho.amplitudes.reshape(rho.dims.dims).transpose(perm)
        return PureState(dims, amp.reshape(-1))
    axes = list(perm) + [n + p for p in perm]
    mat = rho.mat.reshape(rho.dims.dims * 2).transpose(axes)
    return DensityMatrix(dims, mat.reshape(rho.mat.shape))


def permuted_op(op: ProductOperator, perm) -> ProductOperator:
    return ProductOperator(SiteDims(tuple(op.dims.dims[p] for p in perm)),
                           tuple(op.factors[p] for p in perm))


def assert_same_verdict(a, b, scale, terms, dim):
    assert abs(a.margin - b.margin) <= 1e-12 * scale
    if certified(abs(a.margin), scale, terms, dim) and certified(abs(b.margin), scale, terms, dim):
        assert a.detected == b.detected


@settings(max_examples=60, deadline=None)
@given(cases(uniform=False))
def test_theorem1_invariant_under_site_permutation(case):
    dims, perm, seed = case
    rng = np.random.default_rng(seed)
    x, y = (near(op, rng) for op in ghz_probe(dims))
    ev = Theorem1Evaluator(x, y)
    ev_p = Theorem1Evaluator(permuted_op(x, perm), permuted_op(y, perm))
    ghz = np.zeros(dims.total_dim)
    ghz[[0, np.ravel_multi_index((1,) * dims.n, dims.dims)]] = 2**-0.5
    for rho in states(dims, rng, ghz):
        rho_p = permuted(rho, perm)
        for k in range(1, dims.n):
            a, b = ev.evaluate(rho, k), ev_p.evaluate(rho_p, k)
            scale = max((2 ** (k + 1) - 2) * a.lhs, a.rhs)
            assert_same_verdict(a, b, scale, (1 << dims.n) - 2, dims.total_dim)


@settings(max_examples=60, deadline=None)
@given(cases(uniform=True))
def test_theorem2_invariant_under_site_permutation(case):
    dims, perm, seed = case
    rng = np.random.default_rng(seed)
    n, d = dims.n, dims.dims[0]
    x, omegas = w_probe(dims)
    x = near(x, rng)
    omegas = [w + 0.2 * rng.standard_normal((d, d)) for w in omegas]
    ev, ev_p = Theorem2Evaluator(x, omegas), Theorem2Evaluator(permuted_op(x, perm), omegas)
    big_t = len(omegas)
    for rho in states(dims, rng, w_state(n, d).amplitudes):
        bundle, bundle_p = ev.traces(rho), ev_p.traces(permuted(rho, perm))
        for k in range(1, n):
            a, b = ev.report(bundle, k), ev_p.report(bundle_p, k)
            terms = big_t * big_t * n * (n - 1) + big_t * n
            assert_same_verdict(a, b, max(a.lhs, a.rhs), terms, dims.total_dim)
