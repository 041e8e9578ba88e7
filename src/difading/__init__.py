"""Deterministic identification codes over fading Gaussian channels.

A numpy-based laboratory for building sphere-packing identification codebooks,
running the CSI threshold distance decoder over fast- and slow-fading Gaussian
channels, estimating type I / type II identification errors by Monte Carlo
against closed-form oracles, and checking code-size scale and rate-bound
claims numerically.
"""

from .analysis import (
    DominanceResult,
    RegimeVerdict,
    ScaleFn,
    SpacingCheck,
    achievable_rate_lower_bound,
    classify_regime,
    codebook_size_log2_bound,
    converse_rate_upper_bound,
    converse_spacing,
    dominates,
    empirical_rate,
    log2_scale,
    loglog2_scale,
    ri_capacity,
    scale_chain,
)
from .channel import (
    ChannelModel,
    ChannelRealization,
    FadingSpec,
    apply_channel,
    realize,
)
from .codec import (
    Codebook,
    DecoderRule,
    build_codebook,
    codebook_from_text,
    codebook_to_text,
    delta_n,
    epsilon_schedule,
    identify,
    load_codebook,
    save_codebook,
    two_codeword_codebook,
)
from .estimation import (
    ErrorReport,
    NearCodewordReport,
    TrialPlan,
    estimate_type1,
    estimate_type2,
    estimate_worst_case,
    near_codeword_experiment,
    type1_chebyshev_bound,
    type2_chebyshev_bound,
)
from .geometry import (
    DensityEstimate,
    Packing,
    PackingConfig,
    estimate_packing_density,
    generate_saturated_packing,
    min_pairwise_distance,
    sample_in_ball,
)
from .seeding import derive_seed, substream

__version__ = "0.1.0"
