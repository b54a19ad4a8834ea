"""Numerical verification of argument-bound sufficient conditions for p-valent starlikeness."""

from .series import (
    ArgOfZero,
    PowerSeries,
    ZERO_TOL,
    differentiate,
    integrate,
    make_series,
    principal_arg,
)
from .roots import (
    AlphaSequence,
    BracketInvalid,
    NoConvergence,
    alpha_next,
    alpha_sequence,
    bisect_increasing,
    harmonic_lower_bound,
    log_majorant_product,
    majorant_closed_form,
    majorant_sequence,
    sigma_index,
    solve_delta_max,
    solve_gamma0,
)
from .verify import (
    ConclusionCheck,
    DiskGrid,
    DrawsExhausted,
    Lemma1Report,
    NonFiniteValue,
    NotAttained,
    ParamOutOfRange,
    ScanReport,
    SupArgResult,
    VerificationReport,
    ZeroOnGrid,
    check_theorem,
    counterexample_scan,
    lemma1_probe,
    min_real,
    sample_hypothesis_function,
    sup_arg,
)

__version__ = "0.1.0"
