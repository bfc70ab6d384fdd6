"""Shared random-instance helpers for the test suite.

Random mixed states and product probes come from the library's own seeded
generators in `kunent.states`, which the oracle draws from too.
"""

from __future__ import annotations

import numpy as np
import pytest

from kunent import SiteDims
from kunent.states import random_mixed_state, random_product_operator  # noqa: F401


def random_pure_product(dims: SiteDims, rng: np.random.Generator) -> np.ndarray:
    """Amplitudes of a random fully product pure state."""
    amp = np.array([1.0 + 0.0j])
    for d in dims.dims:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        amp = np.kron(amp, z / np.linalg.norm(z))
    return amp


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240101)
