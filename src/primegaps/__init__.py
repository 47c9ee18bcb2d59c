"""Sieve toolkit for balanced almost prime powers, truncated divisor-sum
weights, tuple constants and progression discrepancy statistics."""

from .sieve import (
    FactorTable,
    Factorization,
    build_factor_table,
    euler_phi,
    factorize,
    log_integral,
    mobius,
    primes_up_to,
)
from .balanced import (
    BalanceClassification,
    StarSetSpec,
    classify,
    count_eps_r,
    count_star,
    in_star_set,
    is_eps_balanced,
)
from .density import DensityResult, c0, c0_tail_sum, c0_upper_bound
from .equidist import (
    DiscrepancyConfig,
    DiscrepancyReport,
    bv_prime_discrepancy,
    bv_star_discrepancy,
    weighted_discrepancy,
)
from .tuples import (
    AdmissibleTuple,
    GpyConstantsQuery,
    SingularSeriesValue,
    generate_tuple,
    gpy_constants,
    is_admissible,
    min_k_for_two,
    nu_p,
    positivity_factor,
    singular_series,
)
from .weights import (
    MomentReport,
    WeightConfig,
    lambda_r_batch,
    lambda_r_naive,
    moment_lemma1,
    moment_lemma2,
    moment_lemma3,
    s_statistic,
)

__version__ = "0.1.0"
