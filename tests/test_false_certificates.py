"""The committed corpus of false certificates, tests/golden/inputs/false_certificates.

Every case is a state with at least k unentangled particles that a
criterion once certified at k.  Whether its listed sites are unentangled
is checked here; that no criterion certifies it fails until the ROADMAP
item named in its manifest entry is done, so those checks are strict
xfails: a fix turns one into an XPASS failure, and its marker goes in the
same change.  A case whose entry has ``passes_because`` is no longer
certified for the reason given there, while its item is still open; it
runs as a plain test, so a change that certifies it again fails.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from kunent import Theorem2Evaluator, Theorem2K1Evaluator
from kunent.serialize import load_density_matrix, load_factor, load_product_operator

CORPUS = Path(__file__).parent / "golden" / "inputs" / "false_certificates"
CASES = json.loads((CORPUS / "manifest.json").read_text())


def _load(case):
    rho = load_density_matrix(CORPUS / case["state"])
    x = load_product_operator(CORPUS / case["x"])
    omegas = [load_factor(CORPUS / name) for name in case["omega"]]
    return rho, [Theorem2Evaluator(x, omegas), Theorem2K1Evaluator(x, omegas)]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_listed_sites_are_unentangled(case):
    # rho = rho_s x rho_rest with rho_s pure, for every listed site s
    rho, evaluators = _load(case)
    dims, n = rho.dims.dims, rho.dims.n
    assert case["criterion"] in [ev.theorem for ev in evaluators]
    assert 1 <= case["k"] <= len(case["unentangled_sites"])
    for s in case["unentangled_sites"]:
        d = dims[s - 1]
        moved = np.moveaxis(rho.mat.reshape(dims * 2), (s - 1, n + s - 1), (0, n))
        moved = moved.reshape(d, -1, d, rho.dims.total_dim // d)
        r_site = np.einsum("arbr->ab", moved)
        r_rest = np.einsum("aras->rs", moved)
        assert np.trace(r_site @ r_site).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(moved, np.einsum("ab,rs->arbs", r_site, r_rest), rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", [
    pytest.param(c, id=c["name"], marks=[] if "passes_because" in c else pytest.mark.xfail(
        strict=True, reason=f"ROADMAP item {c['roadmap_item']}"))
    for c in CASES
])
def test_not_certified(case):
    # at every k the criterion accepts and the state satisfies
    rho, evaluators = _load(case)
    for ev in evaluators:
        for k in ev.ks():
            if k <= len(case["unentangled_sites"]):
                assert not ev.evaluate(rho, k).detected, (ev.theorem, k)
