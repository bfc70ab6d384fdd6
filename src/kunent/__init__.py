"""kunent: detect quantum states containing fewer than k unentangled particles.

The library evaluates two inequality criteria on multipartite density
matrices using factorized single-copy traces (no two-copy state is ever
assembled on the production path, and pure states and white noise are
never expanded to D x D matrices), reproduces the GHZ and qudit-W
white-noise detection thresholds, and ships a doubled-space oracle that
validates the factorization at small dimension.
"""

from .config import dim_cap
from .criteria import (
    CriterionReport,
    Theorem1Evaluator,
    Theorem2Evaluator,
    Theorem2K1Evaluator,
    ghz_probe,
    swap_on_subset,
    w_probe,
    w_tilde_probe,
)
from .oracle import doubled_lhs, doubled_term, oracle_check, verify_proof_chain
from .states import (
    Mixture,
    NoiseFamily,
    ghz,
    ghz_noise_family,
    mix,
    random_k_unentangled,
    shift_sigma,
    w_noise_family,
    w_state,
    w_tilde,
)
from .tensor import (
    DensityMatrix,
    ProductOperator,
    PureState,
    SiteDims,
    WhiteNoise,
    assemble,
    cross_trace,
    pair_blocks,
    product_trace,
    qubits,
    qudits,
    sandwich_trace,
    subset_trace_sweep,
)
from .thresholds import (
    COMPARISON_THRESHOLDS_8QUBIT,
    FamilyMargin,
    ThresholdResult,
    bisection_threshold,
    example2_closed_form,
    ghz_noise_closed_form,
    ghz_threshold_table,
    pq_boundary_scan,
)

__version__ = "0.1.0"
