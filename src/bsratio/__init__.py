"""Brauer-Siegel ratios R(q) = prod_{chi != chi0} L(1, chi) for prime
cyclotomic fields: bulk FFT computation, an independent certified
prime-sum verifier, the associated explicit bounds, and figure export.
"""

from .bounds import check_dusart, check_envelope, refined_bound, simple_bound
from .fft import char_spectrum, dft_fast, dft_naive
from .ntheory import (
    PrimeField,
    build_field,
    find_primitive_root,
    is_prime,
    moebius,
    prime_reciprocal_sum,
    sieve_primes,
)
from .pipeline import BatchManifest, StatsRow, compute_range, summarize
from .primesum import (
    SigmaSplit,
    TruncationPlan,
    choose_plan,
    head_sum,
    moebius_tail,
    prime_power_sum,
    truncated_log_L,
    verify_ratio,
)
from .ratio import (
    Method,
    RatioRecord,
    log_H,
    log_hreg,
    log_ratio_digamma,
    log_ratio_fft,
    log_ratio_naive,
)
from .specfun import (
    ConstantsTable,
    constants_table,
    digamma,
    exp_integral_E1,
    hurwitz_zeta,
    log_gamma,
    meissel_mertens,
    minimize_harmonic_loglog,
    power_sum_constant,
)

__version__ = "0.1.0"
