"""Outage, diversity and amount-of-fading analytics for TAS/MRC and TAS/SC
antenna selection over cascaded (n*) Rayleigh fading channels, validated by
a seeded Monte-Carlo channel simulator."""

from .fading import FadingParams, fading_params
from .moments import (
    CAPTION_COEFFS,
    NonPhysicalMomentError,
    WeightingCoefficients,
    af_bound_tas_mrc,
    af_simo,
    af_siso,
    amount_of_fading,
    default_weights,
    moment,
    moment_oracle,
)
from .montecarlo import (
    EmpiricalEstimate,
    SimSettings,
    empirical_cdf_pair,
    estimate_af,
)
from .schemes import (
    AsymptoticForm,
    ChannelConfig,
    CodingGain,
    ConvergenceError,
    OutageQuery,
    Scheme,
    coding_gain,
    diversity_order,
    outage,
    outage_asymptotic,
    postproc_cdf,
    required_snr,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticForm",
    "CAPTION_COEFFS",
    "ChannelConfig",
    "CodingGain",
    "ConvergenceError",
    "EmpiricalEstimate",
    "FadingParams",
    "NonPhysicalMomentError",
    "OutageQuery",
    "Scheme",
    "SimSettings",
    "WeightingCoefficients",
    "af_bound_tas_mrc",
    "af_simo",
    "af_siso",
    "amount_of_fading",
    "coding_gain",
    "default_weights",
    "diversity_order",
    "empirical_cdf_pair",
    "estimate_af",
    "fading_params",
    "moment",
    "moment_oracle",
    "outage",
    "outage_asymptotic",
    "postproc_cdf",
    "required_snr",
    "__version__",
]
