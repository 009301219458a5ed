"""pvlab: planted vector in a random subspace.

Instance generation, the centered degree-4 spectral estimator with exact
recovery by thresholding, spectral-norm and l1/l2 detection tests, exact
computation of the low-degree advantage, and a seeded sweep harness.
"""

from .model_gen import (
    DegenerateDrawError,
    RankDeficientError,
    SeedSpec,
    apply_rotation,
    orthonormalize,
    sample_br_vector,
    sample_detection_pair,
    sample_gaussian_basis,
    sample_haar_rotation,
    sample_rotated_instance,
    sample_orthonormal_instance,
)
from .spectral import (
    ErrorReport,
    SpectralResult,
    build_statistic,
    estimate_direction,
    leading_eigenpair,
    recover_gaussian_rule,
    recover_orthonormal_rule,
    score,
    signs_match,
)
from .detection import (
    DetectionOutcome,
    ErrorRateReport,
    detect_via_estimation,
    error_rates,
    l1l2_test,
    spectral_norm_test,
)
from .lowdeg import AdvantageBreakdown, advantage
from .harness import SweepConfig, SweepRecord, run_sweep, records_to_csv, summarize

__version__ = "0.1.0"
