"""Prime-sum asymptotics workbench.

Builds smallest-prime-factor sieves, evaluates the classical arithmetic
functions and prime partial sums over them, and verifies the attached
identities, asymptotic residual laws, and effective bounds at desk
scale -- exactly where exact arithmetic permits, with calibrated
tolerances where only asymptotics are claimed.
"""

from .arith import (
    chebyshev_psi,
    prime_count,
    theta_log_primorial,
    von_mangoldt,
)
from .density import (
    census_oracle,
    density_series,
    g_count,
    rough_tail_sum,
)
from .errors import DomainError, ResourceError
from .outcomes import VerificationOutcome, Witness
from .partial_sums import (
    EULER_GAMMA,
    MEISSEL_MERTENS_REFERENCE,
    ConstantEstimate,
    ResidualReport,
    abel_summation,
    log_zeta_truncation,
    meissel_mertens_from_series,
    meissel_mertens_from_tail,
    mertens_first_sum,
    reciprocal_prime_sum,
    sum_lambda_over_n,
    mertens2_residual_report,
)
from .sieve import (
    Factorization,
    SieveTable,
    build_sieve,
    factorize,
)

__version__ = "0.1.0"

__all__ = [
    "ConstantEstimate", "DomainError", "EULER_GAMMA",
    "Factorization",
    "MEISSEL_MERTENS_REFERENCE", "ResidualReport", "ResourceError",
    "SieveTable", "VerificationOutcome", "Witness", "abel_summation",
    "build_sieve", "census_oracle", "chebyshev_psi", "density_series",
    "factorize", "g_count", "log_zeta_truncation",
    "meissel_mertens_from_series", "meissel_mertens_from_tail",
    "mertens_first_sum", "prime_count", "reciprocal_prime_sum",
    "rough_tail_sum", "sum_lambda_over_n",
    "mertens2_residual_report",
    "theta_log_primorial", "von_mangoldt",
]
