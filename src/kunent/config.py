"""Central numerical configuration: tolerances and size budgets.

All tolerances used for state validation and detection decisions live
here rather than being scattered through the code.  The dense-matrix
size cap can be overridden with the ``KUNENT_DIM_CAP`` environment variable.
"""

from __future__ import annotations

import os

#: Default cap on the total Hilbert-space dimension D of dense objects.
#: Covers 8 qubits (D=256) and 5 ququarts (D=1024) with headroom.
DEFAULT_DIM_CAP = 4096

#: Cap on the per-copy dimension accepted by the doubled-space oracle.
ORACLE_DIM_CAP = 64

#: Largest relative deviation (factorization check) or negative relative
#: slack (proof chain) that the doubled-space oracle accepts.
ORACLE_TOL = 1e-10

#: Largest particle count for which the subset-sum criterion enumerates
#: all 2^N - 2 nonempty proper subsets.
SUBSET_BUDGET = 16

DIM_CAP_ENV_VAR = "KUNENT_DIM_CAP"

#: State validation (`tensor`): Hermiticity deviation, |Tr rho - 1| and
#: negative eigenvalue of a `DensityMatrix` (the last also bounds the
#: rounding that `sandwich_trace` clamps to 0), and | |psi|^2 - 1 | of a
#: `PureState`.  lambda_min >= -PSD_TOL is certified by a Cholesky factor of
#: rho + (PSD_TOL - its error bound) I, and decided by `eigvalsh` only
#: when that factorization fails (`tensor.DensityMatrix`).
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-10

#: Absolute part of the certificate rule, margin > DETECTION_TOL +
#: summation_gamma(m) * scale (`kunent.criteria.certified`).
DETECTION_TOL = 1e-12

#: Slack on the sum of a mixture's signal weights (`states.component_weights`).
WEIGHT_SUM_TOL = 1e-12

#: Unit roundoff of IEEE binary64 arithmetic.
UNIT_ROUNDOFF = 2.0**-53


def summation_gamma(m: int) -> float:
    """gamma_m = m u / (1 - m u), the relative error bound of a sum of m
    floating-point terms (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 3)."""
    mu = m * UNIT_ROUNDOFF
    if not 0 <= mu < 1:
        raise ValueError(f"no rounding bound for a sum of {m} terms")
    return mu / (1.0 - mu)


def dim_cap() -> int:
    """Current dense-matrix dimension cap (env var override wins)."""
    raw = os.environ.get(DIM_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{DIM_CAP_ENV_VAR} must be an integer, got {raw!r}"
        ) from exc
    if value < 2:
        raise ValueError(f"{DIM_CAP_ENV_VAR} must be >= 2, got {value}")
    return value
