"""Component-wise trace bundles and batched family margins.

Bundles of pure states (from amplitudes), of white noise (analytic) and of
weighted mixtures of them must match the bundles of the same states as
dense matrices, the subset sweep and the batched Theorem-2 fill must match
their dense and looped references, and a batch of family margins must
give, row by row, the bits of a one-point call.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kunent import (
    DensityMatrix,
    Mixture,
    NoiseFamily,
    ProductOperator,
    PureState,
    SiteDims,
    Theorem1Evaluator,
    Theorem2Evaluator,
    Theorem2K1Evaluator,
    WhiteNoise,
    cross_trace,
    ghz,
    ghz_noise_family,
    ghz_probe,
    mix,
    pair_blocks,
    product_trace,
    qubits,
    qudits,
    random_k_unentangled,
    sandwich_trace,
    subset_trace_sweep,
    w_noise_family,
    w_probe,
    w_state,
    w_tilde,
    w_tilde_probe,
)
from kunent.criteria import Theorem1Traces, Theorem2Traces
from kunent.thresholds import FamilyMargin, _bisect_margin, _slice_thresholds, pq_boundary_scan

from conftest import random_mixed_state, random_product_operator

FIELDS = {"T1": ("cross", "subset"), "T2": ("cross", "pair", "site", "base")}


def random_ket(dims: SiteDims, rng: np.random.Generator) -> PureState:
    z = rng.standard_normal(dims.total_dim) + 1j * rng.standard_normal(dims.total_dim)
    return PureState(dims, z / np.linalg.norm(z))


def random_factors(d: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    return [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(count)]


def evaluators(kind: str, dims: SiteDims, rng: np.random.Generator):
    x = random_product_operator(dims, rng)
    if kind == "T1":
        return Theorem1Evaluator(x, random_product_operator(dims, rng))
    omegas = random_factors(dims.uniform(), 2, rng)
    return Theorem2Evaluator(x, omegas) if kind == "T2" else Theorem2K1Evaluator(x, omegas)


def assert_bundles_close(kind: str, got, want) -> None:
    """Every field within 1e-12 of the largest entry of the dense bundle."""
    fields = FIELDS["T1" if kind == "T1" else "T2"]
    largest = max(np.max(np.abs(getattr(want, f))) for f in fields)
    for f in fields:
        diff = np.max(np.abs(np.asarray(getattr(got, f)) - getattr(want, f)))
        assert diff <= 1e-12 * largest, f"{kind} {f}: {diff} vs largest entry {largest}"


CASES = [("T1", (2,) * n) for n in range(2, 7)] + [("T1", (2, 3, 4))]
CASES += [(kind, (2,) * n) for kind in ("T2", "T2_k1") for n in range(2, 7)]
CASES += [("T2", (3, 3, 3))]


class TestBundles:
    @pytest.mark.parametrize("kind,dims", CASES)
    def test_pure_bundle_matches_dense(self, kind, dims):
        rng = np.random.default_rng(len(dims) * 100 + sum(dims))
        dims = SiteDims(dims)
        for _ in range(3):
            ev = evaluators(kind, dims, rng)
            psi = random_ket(dims, rng)
            assert_bundles_close(kind, ev.traces(psi), ev.traces(psi.to_density_matrix()))

    @pytest.mark.parametrize("kind,dims", CASES)
    def test_white_noise_bundle_matches_dense(self, kind, dims):
        rng = np.random.default_rng(len(dims) * 100 + sum(dims) + 1)
        dims = SiteDims(dims)
        d = dims.total_dim
        dense = DensityMatrix(dims, np.eye(d, dtype=complex) / d, _check_psd=False)
        for _ in range(3):
            ev = evaluators(kind, dims, rng)
            assert_bundles_close(kind, ev.traces(WhiteNoise(dims)), ev.traces(dense))

    def test_family_never_builds_a_dense_state(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a family component was densified")

        monkeypatch.setattr(PureState, "to_density_matrix", refuse)
        monkeypatch.setattr(DensityMatrix, "__post_init__", refuse)
        family = w_noise_family(3, 3)
        fm = FamilyMargin(family, Theorem2Evaluator(*w_probe(family.dims)))
        assert np.isfinite(fm.margin([0.2, 0.1], 1))


def assert_close_to_largest(got, want, rel=1e-12) -> None:
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def _loop_t2_traces(ev: Theorem2Evaluator, rho) -> Theorem2Traces:
    """The Theorem-2 bundle filled one (i, j, s, t) value at a time, with
    one np.kron per value: the loop the batched einsums replaced.  Its pair
    blocks come from the per-pair reference routes, not from `pair_blocks`."""
    n, d, big_t = ev.dims.n, ev.d, len(ev.omegas)
    xs = ev.x.factors
    baseline = [f @ f.conj().T for f in xs]
    omega_proj = [w @ w.conj().T for w in ev.omegas]
    reduced = {(i, j): _per_pair_block(rho, i, j, baseline)
               for i in range(n) for j in range(i + 1, n)}

    def val(i, j, g_i, g_j):
        return complex(np.einsum("ab,ba->", reduced[i, j], np.kron(g_i, g_j)))

    cross = np.zeros((big_t, big_t, n, n), dtype=complex)
    pair = np.zeros((big_t, big_t, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            for s in range(big_t):
                for t in range(big_t):
                    cross[s, t, i, j] = val(i, j, xs[i] @ ev.omegas[s].conj().T,
                                            ev.omegas[t] @ xs[j].conj().T)
                    cross[s, t, j, i] = val(i, j, ev.omegas[t] @ xs[i].conj().T,
                                            xs[j] @ ev.omegas[s].conj().T)
                    pair[s, t, i, j] = pair[t, s, j, i] = val(
                        i, j, omega_proj[s], omega_proj[t]).real
    site = np.zeros((big_t, n))
    base = 0.0
    for i in range(n):
        partner = 1 if i == 0 else 0
        lo, hi = min(i, partner), max(i, partner)
        red4 = reduced[lo, hi].reshape(d, d, d, d)
        if i == lo:
            r_i = np.einsum("aAbB,BA->ab", red4, baseline[hi])
        else:
            r_i = np.einsum("aAbB,ba->AB", red4, baseline[lo])
        for s in range(big_t):
            site[s, i] = np.einsum("ab,ba->", r_i, omega_proj[s]).real
        if i == 0:
            base = float(np.einsum("ab,ba->", r_i, baseline[i]).real)
    return Theorem2Traces(n, big_t, cross, pair, site, base)


SWEEP_DIMS = [(2, 2), (2, 3, 4), (3, 2, 2, 3), (2,) * 5, (2,) * 8]


class TestKernels:
    """The pure-state and white-noise routes of the subset sweep, the
    batched Theorem-2 fill and mixture bundles against their references."""

    @pytest.mark.parametrize("dims", SWEEP_DIMS)
    def test_pure_sweep_matches_dense(self, dims):
        rng = np.random.default_rng(sum(dims) * 10 + len(dims))
        dims = SiteDims(dims)
        for _ in range(3):
            psi = random_ket(dims, rng)
            pairs = [tuple(random_factors(d, 2, rng)) for d in dims.dims]
            assert_close_to_largest(subset_trace_sweep(psi, pairs),
                                    subset_trace_sweep(psi.to_density_matrix(), pairs))

    @pytest.mark.parametrize("dims", SWEEP_DIMS)
    def test_white_noise_sweep_matches_dense(self, dims):
        rng = np.random.default_rng(sum(dims) * 10 + len(dims) + 1)
        dims = SiteDims(dims)
        d = dims.total_dim
        dense = DensityMatrix(dims, np.eye(d, dtype=complex) / d, _check_psd=False)
        pairs = [tuple(random_factors(di, 2, rng)) for di in dims.dims]
        assert_close_to_largest(subset_trace_sweep(WhiteNoise(dims), pairs),
                                subset_trace_sweep(dense, pairs))

    @pytest.mark.parametrize("dims", [(2, 2), (2,) * 4, (3, 3, 3), (4,) * 4])
    def test_batched_t2_fill_matches_loop(self, dims):
        rng = np.random.default_rng(sum(dims) + len(dims))
        dims = SiteDims(dims)
        psi = random_ket(dims, rng)
        d = dims.total_dim
        states = [psi, psi.to_density_matrix(), WhiteNoise(dims),
                  DensityMatrix(dims, np.eye(d, dtype=complex) / d, _check_psd=False)]
        for rho in states:
            ev = evaluators("T2", dims, rng)
            assert_bundles_close("T2", ev.traces(rho), _loop_t2_traces(ev, rho))

    @pytest.mark.parametrize("kind", ["T1", "T2", "T2_k1"])
    def test_mixture_bundle_matches_mix(self, kind):
        rng = np.random.default_rng(3)
        cases = [(qubits(5), ((0.6, ghz(5)),)),
                 (qudits(3, 3), ((0.3, w_state(3, 3)), (0.2, w_tilde(3, 3)))),
                 (qubits(4), ((0.25, random_ket(qubits(4), rng)),
                              (0.5, random_ket(qubits(4), rng)))),
                 (qubits(3), ())]
        for dims, signals in cases:
            ev = evaluators(kind, dims, rng)
            assert_bundles_close(kind, ev.traces(Mixture(dims, signals)),
                                 ev.traces(mix(list(signals), dims)))


def _recursive_dense_sweep(rho: DensityMatrix, pairs) -> np.ndarray:
    """The binary recursion the per-site dense sweep replaced: one
    leading-site contraction per node, 2^(N+1) Python-level steps."""
    dims = rho.dims.dims

    def rec(mat, site):
        if site == len(dims):
            return np.array([mat[0, 0]])
        d = dims[site]
        view = mat.reshape(d, mat.shape[0] // d, d, mat.shape[0] // d)
        res_u, res_v = (rec(np.einsum("arbs,ba->rs", view, g), site + 1) for g in pairs[site])
        out = np.empty(2 * res_u.size, dtype=complex)
        out[0::2] = res_u
        out[1::2] = res_v
        return out

    return rec(rho.mat, 0)


def _site_by_site_dense_trace(rho: DensityMatrix, factors) -> complex:
    """The dense product trace as its own route computed it before it became
    the sweep's case of one choice per site: one leading-site einsum per site."""
    acc = rho.mat
    for d, g in zip(rho.dims.dims, factors):
        # acc is (d*R, d*R) over sites site..N; rho'[r, s] = sum_ab acc[(a,r),(b,s)] g[b,a]
        acc = np.einsum("arbs,ba->rs", acc.reshape(d, len(acc) // d, d, -1), g)
    return complex(acc[0, 0])


def _kron_pair_reduced(rho: DensityMatrix, i: int, j: int, baseline) -> np.ndarray:
    """The dense pair block with the rest-site baselines joined by np.kron,
    as the per-pair dense route built it before."""
    dims = rho.dims.dims
    n = len(dims)
    rest = [m for m in range(n) if m not in (i, j)]
    u_rest = np.array([[1.0 + 0.0j]])
    for m in rest:
        u_rest = np.kron(u_rest, baseline[m])
    perm = [i, j, *rest]
    kept = dims[i] * dims[j]
    rho_p = np.transpose(rho.mat.reshape(dims * 2), perm + [n + p for p in perm])
    rho_p = rho_p.reshape(kept, u_rest.shape[0], kept, u_rest.shape[0])
    return np.einsum("arbs,sr->ab", rho_p, u_rest)


def _per_pair_pure_block(psi: PureState, i: int, j: int, baseline) -> np.ndarray:
    """The pure pair block one pair at a time, R = Psi Phi^dag with
    baseline[m]^dag applied to the amplitudes at each rest site m in turn,
    as the per-pair route built it before the blocks shared a sweep."""
    dims = psi.dims.dims
    perm = [i, j, *(m for m in range(len(dims)) if m not in (i, j))]
    amp = phi = psi.amplitudes.reshape(dims)
    for m in perm[2:]:
        phi = np.moveaxis(np.tensordot(baseline[m].conj().T, phi, axes=(1, m)), 0, m)
    kept = dims[i] * dims[j]
    return (np.transpose(amp, perm).reshape(kept, -1)
            @ np.transpose(phi, perm).reshape(kept, -1).conj().T)


def _per_pair_noise_block(dims: SiteDims, i: int, j: int, baseline) -> np.ndarray:
    """The white-noise pair block one pair at a time, (1/D) prod tr(baseline[m])
    over the rest sites in increasing m, times the identity."""
    value = 1.0 / dims.total_dim
    for m in range(dims.n):
        if m not in (i, j):
            value = value * np.trace(baseline[m])
    return value * np.eye(dims.dims[i] * dims.dims[j], dtype=complex)


def _per_pair_block(rho, i: int, j: int, baseline) -> np.ndarray:
    """The block of the one pair (i, j) from the per-pair reference route
    of rho's representation."""
    if isinstance(rho, PureState):
        return _per_pair_pure_block(rho, i, j, baseline)
    if isinstance(rho, WhiteNoise):
        return _per_pair_noise_block(rho.dims, i, j, baseline)
    return _kron_pair_reduced(rho, i, j, baseline)


PAIR_BLOCK_DIMS = [(d,) * n for d, top in ((2, 8), (3, 7), (4, 6)) for n in range(3, top + 1)]


class TestPairBlocks:
    """All pair blocks at once, in np.triu_indices order, against the
    per-pair routes they replaced."""

    @staticmethod
    def _case(dims):
        rng = np.random.default_rng(sum(dims) * 10 + len(dims) + 4)
        dims = SiteDims(dims)
        baseline = [f @ f.conj().T for d in dims.dims for f in random_factors(d, 1, rng)]
        return dims, baseline, rng

    @pytest.mark.parametrize("dims", PAIR_BLOCK_DIMS)
    def test_pure_blocks_match_per_pair_route(self, dims):
        dims, baseline, rng = self._case(dims)
        for _ in range(2):
            psi = random_ket(dims, rng)
            blocks = pair_blocks(psi, baseline)
            for p, (i, j) in enumerate(zip(*np.triu_indices(dims.n, 1))):
                assert_close_to_largest(blocks[p], _per_pair_pure_block(psi, i, j, baseline),
                                        rel=1e-13)

    @pytest.mark.parametrize("dims", PAIR_BLOCK_DIMS)
    def test_noise_blocks_match_per_pair_route_bit_for_bit(self, dims):
        dims, baseline, _ = self._case(dims)
        blocks = pair_blocks(WhiteNoise(dims), baseline)
        for p, (i, j) in enumerate(zip(*np.triu_indices(dims.n, 1))):
            assert np.array_equal(blocks[p], _per_pair_noise_block(dims, i, j, baseline))

    @pytest.mark.parametrize("dims", [(2,) * 3, (2,) * 5, (3,) * 4, (4,) * 3])
    def test_dense_blocks_match_kron_loop_bit_for_bit(self, dims):
        dims, baseline, rng = self._case(dims)
        rho = random_mixed_state(dims, rng, rank=4)
        blocks = pair_blocks(rho, baseline)
        for p, (i, j) in enumerate(zip(*np.triu_indices(dims.n, 1))):
            assert np.array_equal(blocks[p], _kron_pair_reduced(rho, i, j, baseline))

    def test_unequal_dims_rejected(self):
        dims, baseline, rng = self._case((2, 3, 4))
        psi = random_ket(dims, rng)
        for rho in (psi, psi.to_density_matrix(), WhiteNoise(dims)):
            with pytest.raises(ValueError, match="sites have unequal dimensions"):
                pair_blocks(rho, baseline)


BITWISE_DIMS = [(2,) * n for n in range(3, 9)] + [(2, 3, 4), (3, 2, 2, 3), (4,) * 4]

# SHA-256 of random_k_unentangled(dims, k, terms, seed).mat.tobytes(), as
# built through Partition, PureState and Mixture objects per term by an
# earlier version; they pin the site-order layout of every term
STATE_DIGESTS = [
    ((2, 2, 2), 1, 4, 0, "0fc8e7feda4e483735854eab8cac0be58eabffe1e5eff360221bbdc8a1e515a3"),
    ((2, 2, 2, 2), 3, 4, 11, "c73161aa0e66b87f03010e592f83e3e19103be9b104fa3cc3a363b168c71c481"),
    ((2,) * 6, 2, 4, 12345, "d03a86b886eca2199a8de6e7f022b31526cd0991809e6fa226d595a9e7245a49"),
    ((2, 3, 4), 2, 3, 7, "43974bb26748ed06ae89f72678e9882182fd836fb2aaee722779feaa5293cfa0"),
    ((3, 2, 2, 3), 1, 5, 99, "a092b82e254928fdb009f3e100cd54bd3db4f5454cf4d073ec7cc9c656fa2041"),
    ((2,) * 5, 4, 1, 2024, "f686b4b5c9b0bcc6b6aa0af4500af0cbcd7767592070f5f859e7e921564d08fe"),
    ((4, 4, 4), 1, 6, 5, "74fcf6d6885e3f9f1d2842f633e4e021853a7af9d2aff53e03616bb0df70f787"),
]


class TestDenseKernelsBitForBit:
    """The dense subset sweep, the dense product, cross and sandwich traces,
    the dense pair blocks and the seeded k-unentangled state keep every bit
    of the code they replaced."""

    @pytest.mark.parametrize("dims", BITWISE_DIMS)
    def test_dense_sweep_matches_recursion(self, dims):
        rng = np.random.default_rng(sum(dims) * 10 + len(dims) + 2)
        dims = SiteDims(dims)
        for _ in range(3):
            rho = random_mixed_state(dims, rng, rank=4)
            pairs = [tuple(random_factors(d, 2, rng)) for d in dims.dims]
            assert np.array_equal(subset_trace_sweep(rho, pairs),
                                  _recursive_dense_sweep(rho, pairs))

    @pytest.mark.parametrize("dims", BITWISE_DIMS)
    def test_dense_closed_traces_match_site_by_site(self, dims):
        rng = np.random.default_rng(sum(dims) * 10 + len(dims) + 5)
        dims = SiteDims(dims)
        for _ in range(3):
            rho = random_mixed_state(dims, rng, rank=4)
            factors = [g for d in dims.dims for g in random_factors(d, 1, rng)]
            x, y = random_product_operator(dims, rng), random_product_operator(dims, rng)
            assert product_trace(rho, factors) == _site_by_site_dense_trace(rho, factors)
            assert cross_trace(rho, x, y) == _site_by_site_dense_trace(
                rho, [fy @ fx.conj().T for fx, fy in zip(x.factors, y.factors)])
            assert sandwich_trace(rho, x) == _site_by_site_dense_trace(
                rho, [f @ f.conj().T for f in x.factors]).real

    @pytest.mark.parametrize("dims", BITWISE_DIMS)
    def test_dense_pair_blocks_match_kron_loop(self, dims):
        rng = np.random.default_rng(sum(dims) * 10 + len(dims) + 3)
        dims = SiteDims(dims)
        rho = random_mixed_state(dims, rng, rank=4)
        baseline = [f @ f.conj().T for d in dims.dims for f in random_factors(d, 1, rng)]
        if len(set(dims.dims)) > 1:  # pair blocks are defined for sites of one dimension
            with pytest.raises(ValueError, match="sites have unequal dimensions"):
                pair_blocks(rho, baseline)
            return
        blocks = pair_blocks(rho, baseline)
        for p, (i, j) in enumerate(zip(*np.triu_indices(dims.n, 1))):
            assert np.array_equal(blocks[p], _kron_pair_reduced(rho, i, j, baseline))

    @pytest.mark.parametrize("dims, k, terms, seed, digest", STATE_DIGESTS)
    def test_random_k_unentangled_bits_pinned(self, dims, k, terms, seed, digest):
        rho = random_k_unentangled(SiteDims(dims), k, terms, seed)
        assert isinstance(rho, DensityMatrix)
        assert hashlib.sha256(rho.mat.tobytes()).hexdigest() == digest


def _random_family(rng: np.random.Generator) -> NoiseFamily:
    dims = qubits(4)
    return NoiseFamily(dims, (random_ket(dims, rng), random_ket(dims, rng)), ("p", "q"))


class _SignedZeroT2(Theorem2Evaluator):
    """T2 whose component bundles carry -0.0 in half of their zero entries,
    the even-indexed ones in one component and the odd-indexed ones in the
    next, so that columns equal up to the sign of a zero stand side by side."""

    def traces(self, rho):
        tr = super().traces(rho)
        self.built = getattr(self, "built", 0) + 1
        fields = {}
        for name in FIELDS["T2"]:
            value = np.array(getattr(tr, name))
            every_other = np.arange(value.size).reshape(value.shape) % 2 == self.built % 2
            for part in (value.real, value.imag) if np.iscomplexobj(value) else (value,):
                part[(part == 0) & every_other] = -0.0
            fields[name] = value
        return replace(tr, **fields)


def family_margins():
    rng = np.random.default_rng(7)
    ghz = ghz_noise_family(6)
    w = w_noise_family(4, 3)
    rand = _random_family(rng)
    x, om = w_probe(w.dims)
    xt, omt = w_tilde_probe(w.dims)
    return [
        ("ghz-T1", FamilyMargin(ghz, Theorem1Evaluator(*ghz_probe(ghz.dims))), range(1, 6)),
        ("w-T2", FamilyMargin(w, Theorem2Evaluator(x, om)), range(1, 4)),
        ("wtilde-T2", FamilyMargin(w, Theorem2Evaluator(xt, omt)), range(1, 4)),
        ("w-T2_k1", FamilyMargin(w, Theorem2K1Evaluator(x, om)), [1]),
        ("rand-T1", FamilyMargin(rand, evaluators("T1", rand.dims, rng)), range(1, 4)),
        ("rand-T2", FamilyMargin(rand, evaluators("T2", rand.dims, rng)), range(1, 4)),
        ("w-T2-signed-zeros", FamilyMargin(w, _SignedZeroT2(x, om)), range(1, 4)),
    ]


@lru_cache(maxsize=None)
def _family_margin(label: str):
    """(FamilyMargin, ks) of the `family_margins` case `label`, built once."""
    (case,) = [(fm, ks) for name, fm, ks in family_margins() if name == label]
    return case


def _component_bundles(fm: FamilyMargin) -> list:
    return [fm.evaluator.traces(c) for c in (*fm.family.signals, WhiteNoise(fm.family.dims))]


def _loop_combine(bundles, row):
    """The mixture bundle summed component by component in Python floats,
    white noise last with weight 1 - (sum of the signal weights)."""
    weights = [float(p) for p in row]
    weights.append(1.0 - sum(weights))

    def mix(name):
        return sum(w * getattr(b, name) for w, b in zip(weights, bundles))

    first = bundles[0]
    if isinstance(first, Theorem1Traces):
        return Theorem1Traces(first.n, complex(mix("cross")), mix("subset"))
    return Theorem2Traces(first.n, first.n_omega, mix("cross"), mix("pair"), mix("site"),
                          float(mix("base")))


class TestBatchedMargins:
    @pytest.mark.parametrize("label,fm,ks", family_margins(), ids=lambda v: v if isinstance(v, str) else "")
    def test_rows_match_one_point_calls_bit_for_bit(self, label, fm, ks):
        rng = np.random.default_rng(11)
        n_params = len(fm.family.signals)
        params = rng.dirichlet(np.ones(n_params + 1), size=64)[:, :n_params]
        bundles = _component_bundles(fm)
        # one k for every row, then a k drawn per row
        for row_ks in [np.full(64, k) for k in ks] + [rng.choice(list(ks), size=64)]:
            batch = fm.margins(params, row_ks if len(set(row_ks)) > 1 else int(row_ks[0]))
            for row, k, m, det in zip(params, row_ks.tolist(), batch.margin, batch.detected):
                report = fm.report(row, k)
                looped = fm.evaluator.report(_loop_combine(bundles, row), k)
                assert m == fm.margin(row, k) == report.margin == looped.margin
                assert det == report.detected == looped.detected

    @pytest.mark.parametrize("label", [label for label, _, _ in family_margins()])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_batch_rows_match_mixture_bundles(self, label, data):
        # fm.margins works on the family's distinct columns; each of its
        # rows must have the bits of the criterion on the full bundle of
        # that family point, whatever else the batch holds
        fm, ks = _family_margin(label)
        n_params = len(fm.family.signals)
        raw = data.draw(st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=n_params + 1, max_size=n_params + 1),
            min_size=1, max_size=12))
        params = np.array([row[:n_params] for row in raw]) / np.maximum(
            np.sum(raw, axis=1, keepdims=True), 1.0)
        row_ks = np.array(data.draw(st.lists(st.sampled_from(list(ks)),
                                             min_size=len(raw), max_size=len(raw))))
        batch = fm.margins(params, row_ks)
        ev = fm.evaluator
        for i, (row, k) in enumerate(zip(params, row_ks.tolist())):
            want = ev.margins(ev.traces(fm.family.evaluate(*row)), k)
            got = [np.asarray(field)[i].tobytes() for field in batch]
            assert got == [np.asarray(field).tobytes() for field in want], (row, k)

    def test_signed_zero_columns_are_merged(self):
        # the family of the signed-zero case above repeats columns, and
        # columns equal up to the sign of a zero count as one
        (fm,) = [fm for label, fm, _ in family_margins() if label == "w-T2-signed-zeros"]
        stacked = np.stack([b.cross.reshape(-1) for b in _component_bundles(fm)])
        by_bits = {stacked[:, j].tobytes() for j in range(stacked.shape[1])}
        by_value = {tuple(stacked[:, j]) for j in range(stacked.shape[1])}
        assert np.any(np.signbit(stacked.real) & (stacked.real == 0))
        assert len(fm._columns[0].cross) == len(by_value) < len(by_bits) < stacked.shape[1]


def _plain_bisect(f, lo, hi, tol=1e-8, max_iter=60):
    """Plain bisection of one row, every midpoint evaluated: `f(t)` gives
    anything with a `margin` and a `detected`."""
    at_hi = f(hi)
    if not at_hi.detected:
        return None, at_hi.margin
    at_lo = f(lo)
    if at_lo.detected:
        return lo, at_lo.margin
    a, b = lo, hi
    for _ in range(max_iter):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        if f(mid).margin > 0.0:
            b = mid
        else:
            a = mid
    root = 0.5 * (a + b)
    return root, f(root).margin


def _scalar_bisect(fm: FamilyMargin, params_at, k, hi, tol=1e-8, max_iter=60):
    """One gridline at a time: the loop the batched bisection replaces."""
    return _plain_bisect(lambda t: fm.report(params_at(t), k), 0.0, hi, tol, max_iter)


def _near(op: ProductOperator, eps: float, rng: np.random.Generator) -> ProductOperator:
    """`op` with complex Gaussian noise of scale `eps` added to every factor."""
    return ProductOperator(op.dims, tuple(f + eps * random_factors(f.shape[0], 1, rng)[0]
                                          for f in op.factors))


def _scaled(op: ProductOperator, scale: float) -> ProductOperator:
    """`op` times `scale`, spread over its factors as the N-th root each."""
    return ProductOperator(op.dims, tuple(scale ** (1 / op.dims.n) * f for f in op.factors))


def bisection_cases():
    """(label, FamilyMargin, fixed weights of each slice) of the slices whose
    batched roots must be plain bisection's: random probes near the presets,
    where most slices cross, scaled presets and the per-tuple variant."""
    rng = np.random.default_rng(2024)
    cases = []
    for n in (3, 4, 5):
        fam = ghz_noise_family(n)
        for trial in range(2):
            x, y = ghz_probe(fam.dims)
            ev = Theorem1Evaluator(_near(x, 0.2, rng), _near(y, 0.2, rng))
            cases.append((f"ghz{n}-T1-random{trial}", FamilyMargin(fam, ev), [()]))
    for n, d in ((3, 2), (4, 3), (5, 2)):
        fam = w_noise_family(n, d)
        for trial in range(2):
            x, (omega, *_) = w_probe(fam.dims)
            omegas = [omega + 0.2 * f for f in random_factors(d, 2, rng)]
            ev = Theorem2Evaluator(_near(x, 0.05, rng), omegas)
            cases.append((f"w{n}{d}-T2-random{trial}", FamilyMargin(fam, ev), [(0.0,), (0.2,)]))
    for scale in (0.003, 0.1, 7.0, 1e3):
        fam = ghz_noise_family(6)
        x, y = ghz_probe(fam.dims)
        cases.append((f"ghz6-T1-scale{scale}",
                      FamilyMargin(fam, Theorem1Evaluator(_scaled(x, scale), y)), [()]))
        fam = w_noise_family(4, 3)
        x, omegas = w_probe(fam.dims)
        ev = Theorem2Evaluator(_scaled(x, scale), [scale ** (1 / fam.dims.n) * o for o in omegas])
        cases.append((f"w43-T2-scale{scale}", FamilyMargin(fam, ev), [(0.0,), (0.1,), (0.3,)]))
    for n, d in ((4, 2), (5, 4)):
        fam = w_noise_family(n, d)
        cases.append((f"w{n}{d}-T2_k1", FamilyMargin(fam, Theorem2K1Evaluator(*w_probe(fam.dims))),
                      [(0.0,), (0.1,), (0.25,)]))
    return cases


class TestBatchedBisection:
    @pytest.mark.parametrize("probe", ["w", "wtilde"])
    def test_boundary_scan_matches_scalar_bisection(self, probe):
        n, d, grid = 4, 3, 12
        family = w_noise_family(n, d)
        preset = w_probe if probe == "w" else w_tilde_probe
        fm = FamilyMargin(family, Theorem2Evaluator(*preset(family.dims)))
        for k in range(1, n):
            rows = pq_boundary_scan(n, d, k, grid, probe=probe)
            for row in rows[:-1]:
                g = row.gridline
                params_at = (lambda t: [t, g]) if probe == "w" else (lambda t: [g, t])
                star, residual = _scalar_bisect(fm, params_at, k, 1.0 - g)
                assert row.star == star and row.residual == residual

    def test_rows_with_no_root_and_root_at_lo(self):
        # row 0 is never certified, row 1 is certified on the whole slice
        from kunent.criteria import Margins

        def f(t, rows):
            margin = np.where(rows == 0, -1.0, 1.0 + t)
            return Margins(margin, margin, margin, margin > 0.0)

        root, residual = _bisect_margin(f, np.zeros(2), np.ones(2))
        assert np.isnan(root[0]) and residual[0] == -1.0
        assert root[1] == 0.0 and residual[1] == 1.0

    @pytest.mark.parametrize("label,fm,slices", bisection_cases(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_batched_roots_match_plain_bisection(self, label, fm, slices):
        # every k of every slice in one batch, the way table1 and fig1
        # bisect: each root and residual must be plain bisection's, bit for bit
        ks = fm.evaluator.ks()
        fixed = np.array([g for g in slices for _ in ks], dtype=float)
        row_ks = np.tile(ks, len(slices))
        roots, residuals = _slice_thresholds(fm, row_ks, fixed, 0)
        crossed = 0
        for g, k, root, residual in zip(fixed.tolist(), row_ks.tolist(), roots, residuals):
            star, want = _scalar_bisect(fm, lambda t: [t, *g], k, 1.0 - sum(g))
            assert (None if np.isnan(root) else root) == star and residual == want, (g, k)
            crossed += star not in (None, 0.0)
        assert crossed >= len(row_ks) // 2, "too few slices cross to test the bisection"

    def test_positive_but_uncertified_low_end_evaluates_every_midpoint(self):
        # row 0: convex, positive but not certified at lo, crossing zero
        # twice (at 0.242 and 0.558); row 1: convex, crossing once.  Both
        # roots must be plain bisection's, the first one included
        from kunent.criteria import Margins

        def curve(t, rows):
            return np.where(rows == 0, 4.0 * (t - 0.4) ** 2 - 0.1, t * t + t - 0.5)

        def f(t, rows):
            margin = curve(t, rows)
            return Margins(margin, margin, margin, margin > 0.6)

        root, residual = _bisect_margin(f, np.zeros(2), np.ones(2), convex=True)
        for row in range(2):
            want = _plain_bisect(lambda t: f(np.array([t]), np.array([row])), 0.0, 1.0)
            assert (root[row], residual[row]) == (want[0], want[1][0])
        assert 0.5 < root[0] < 0.6


def _loop_t1(tr, k):
    full = (1 << tr.n) - 1
    clamped = np.maximum(tr.subset, 0.0)
    rhs = 0.0
    for mask in range(1, full):
        rhs += float(np.sqrt(clamped[mask] * clamped[full ^ mask]))
    lhs = abs(complex(tr.cross))
    return lhs, rhs, (2 ** (k + 1) - 2) * lhs - rhs


def _loop_t2(tr, k):
    off = ~np.eye(tr.n, dtype=bool)
    base = max(float(tr.base), 0.0)
    lhs = float(np.sum(np.abs(tr.cross)[:, :, off]))
    rhs_pairs = float(np.sum(np.sqrt(base * np.maximum(tr.pair, 0.0)[:, :, off])))
    rhs = rhs_pairs + tr.n_omega * (tr.n - k - 1) * float(np.sum(np.maximum(tr.site, 0.0)))
    return lhs, rhs, lhs - rhs


def _loop_t2_k1(tr, k):
    base = max(float(tr.base), 0.0)
    best, total = (-np.inf, 0.0, 0.0), 0.0
    for s in range(tr.n_omega):
        for t in range(tr.n_omega):
            for i in range(tr.n):
                for j in range(tr.n):
                    if i != j:
                        lhs = float(np.abs(tr.cross[s, t, i, j]) ** 2)
                        rhs = float(base * max(tr.pair[s, t, i, j], 0.0))
                        total += lhs - rhs
                        if lhs - rhs > best[0]:
                            best = (lhs - rhs, lhs, rhs)
    return best[1], best[2], best[0]


class TestReportMatchesLoopReference:
    """The vectorised margin formulas add in the order of the per-term loops
    they replaced, so dense evaluations print the same bits as before."""

    @pytest.mark.parametrize("kind,dims", CASES)
    def test_lhs_rhs_margin_bit_for_bit(self, kind, dims):
        rng = np.random.default_rng(len(dims) * 10 + sum(dims) + 5)
        dims = SiteDims(dims)
        reference = {"T1": _loop_t1, "T2": _loop_t2, "T2_k1": _loop_t2_k1}[kind]
        for _ in range(4):
            ev = evaluators(kind, dims, rng)
            tr = ev.traces(random_ket(dims, rng).to_density_matrix())
            for k in ([1] if kind == "T2_k1" else range(1, dims.n)):
                rep = ev.report(tr, k)
                assert (rep.lhs, rep.rhs, rep.margin) == reference(tr, k)


def _report_bits(report) -> tuple:
    """Every field of a report, each float as its bits (so the last ulp, the
    sign of a zero and a NaN count) and with its type."""

    def bits(value):
        return (type(value), np.float64(value).tobytes() if isinstance(value, float) else value)

    return (report.theorem, bits(report.k), *map(bits, (report.lhs, report.rhs, report.margin)),
            bits(report.detected), bits(report.degenerate),
            tuple((label, bits(value)) for label, value in report.terms))


def _bit_cases_states(dims: SiteDims, rng: np.random.Generator):
    """A dense, a pure, a mixed and a white-noise state on `dims`."""
    kets = random_ket(dims, rng), random_ket(dims, rng)
    return [random_mixed_state(dims, rng), kets[0],
            Mixture(dims, ((0.5, kets[0]), (0.25, kets[1]))), WhiteNoise(dims)]


def _bit_cases_evaluators(kind: str, dims: SiteDims, rng: np.random.Generator):
    """A criterion on random probes, and one whose base probe has a zero factor."""
    zero = np.zeros((dims.dims[0],) * 2)
    ev = evaluators(kind, dims, rng)
    x = ev.x.replace_factor(1, zero)
    degenerate = (type(ev)(x, ev.y) if kind == "T1" else type(ev)(x, ev.omegas))
    assert degenerate.degenerate and not ev.degenerate
    return ev, degenerate


class TestReportsMatchReport:
    """`reports` evaluates every k at once and shares what does not depend on
    k; each of its reports is, field for field and bit for bit, the report
    of its k alone."""

    @pytest.mark.parametrize("kind,dims", CASES)
    def test_every_field_bit_for_bit(self, kind, dims):
        rng = np.random.default_rng(len(dims) * 10 + sum(dims) + 9)
        dims = SiteDims(dims)
        # every k, last first, and one of them twice; the per-tuple variant is defined at k = 1
        ks = [1, 1] if kind == "T2_k1" else [*range(dims.n - 1, 0, -1), 1]
        for ev in _bit_cases_evaluators(kind, dims, rng):
            for rho in _bit_cases_states(dims, rng):
                traces = ev.traces(rho)
                got = ev.reports(traces, ks)
                assert [_report_bits(r) for r in got] == [
                    _report_bits(ev.report(traces, k)) for k in ks]
                assert [_report_bits(r) for r in ev.reports(traces, range(1, 2))] == [
                    _report_bits(ev.evaluate(rho, 1))]
                if kind == "T1":  # one term tuple, shared by every k
                    assert all(r.terms is got[0].terms for r in got)

    def test_no_k_no_report(self):
        ev = evaluators("T2", qubits(3), np.random.default_rng(1))
        assert ev.reports(ev.traces(WhiteNoise(qubits(3))), []) == []

    @pytest.mark.parametrize("ks,message", [
        ([1, 1.5], "k must be an integer, got 1.5"),
        ([2, True], "k must be an integer, got True"),
        ([1, 4], "k must satisfy 1 <= k <= 3, got 4"),
    ])
    def test_each_k_checked_as_report_checks_it(self, ks, message):
        ev = evaluators("T1", qubits(4), np.random.default_rng(2))
        traces = ev.traces(WhiteNoise(qubits(4)))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ev.reports(traces, ks)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ev.report(traces, ks[1])
