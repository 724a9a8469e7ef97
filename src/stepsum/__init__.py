"""Summatory identities for number-theoretic step functions.

A step function is stored as its jump series (locations and weights); the
package evaluates partial sums two independent ways, once by direct
summation and once through the summation-by-parts identity, and reports
how closely the routes agree.
"""

from .analytic import (
    LiValue,
    check_reciprocal_sum_increment,
    li_from_2,
    mertens_remainder,
    prime_count_via_li,
    prime_reciprocal_sum_via_mertens,
)
from .errors import (
    ConfigurationError,
    DomainError,
    PanelBudgetError,
    RangeError,
    ResourceError,
    StepSumError,
)
from .identities import (
    count_via_abel,
    floor_via_identity,
    harmonic_direct,
    harmonic_via_identity,
    iter_harmonic_identity,
    natural_reciprocal_series,
    power_sum_via_abel,
    prime_count_via_identity,
    prime_reciprocal_sum_via_pi,
    prime_reciprocal_sum_via_prime_sums,
    prime_sum_via_identity,
    reciprocal_power_sum_via_abel,
    triangular_via_identity,
)
from .jump_series import (
    INV_LOG,
    INV_LOG_MINUS_SQ,
    INV_Y_LOG,
    INV_Y_LOG_SQ,
    POWER_ZERO,
    JumpSeries,
    Kernel,
    build_jump_series,
    integrate_kernel_times_step,
    stieltjes_integrate,
)
from .primes import DEFAULT_LIMIT_CAP, EXACT_X_CAP, PrimeTable, sieve
from .report import IdentityId, VerificationReport, error_report, make_report
from .verify import (
    MIN_PAIRWISE_GAP,
    increment_sweep,
    random_intervals,
    random_set_sweep,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Kernel",
    "POWER_ZERO",
    "INV_Y_LOG_SQ",
    "INV_Y_LOG",
    "INV_LOG",
    "INV_LOG_MINUS_SQ",
    "JumpSeries",
    "build_jump_series",
    "integrate_kernel_times_step",
    "stieltjes_integrate",
    "PrimeTable",
    "sieve",
    "DEFAULT_LIMIT_CAP",
    "EXACT_X_CAP",
    "count_via_abel",
    "power_sum_via_abel",
    "reciprocal_power_sum_via_abel",
    "natural_reciprocal_series",
    "harmonic_direct",
    "harmonic_via_identity",
    "iter_harmonic_identity",
    "floor_via_identity",
    "triangular_via_identity",
    "prime_count_via_identity",
    "prime_sum_via_identity",
    "prime_reciprocal_sum_via_prime_sums",
    "prime_reciprocal_sum_via_pi",
    "LiValue",
    "li_from_2",
    "mertens_remainder",
    "prime_count_via_li",
    "prime_reciprocal_sum_via_mertens",
    "check_reciprocal_sum_increment",
    "IdentityId",
    "VerificationReport",
    "make_report",
    "error_report",
    "run_sweep",
    "random_set_sweep",
    "increment_sweep",
    "random_intervals",
    "MIN_PAIRWISE_GAP",
    "StepSumError",
    "DomainError",
    "RangeError",
    "ResourceError",
    "PanelBudgetError",
    "ConfigurationError",
]
