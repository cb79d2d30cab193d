"""Privacy-aware Gray-Wyner computations for K discrete correlated sources.

The package computes the rate-equivocation region of the K-decoder
Gray-Wyner network with per-decoder equivocation constraints, the exact
generalized (Gacs-Korner-style) common information C with its witness, a
numerical upper bound on the Wyner-style common information B, and a
finite-blocklength random-binning simulator measuring error probability
and equivocation.
"""

from types import ModuleType as _ModuleType

from .codec_sim import (
    CodeConfig,
    Codebook,
    DecoderFailure,
    EncoderFailure,
    Messages,
    SimReport,
    build_codebook,
    decode,
    encode,
    exact_equivocation,
    run_trials,
)
from .common_information import (
    BoundsReport,
    C2Report,
    CommonInfoResult,
    Diagnostics,
    Prop4Report,
    WynerParams,
    gk_brute_force_oracle,
    gk_common_information,
    iter_set_partitions,
    pairwise_mi_bounds,
    verify_c2,
    verify_chain,
    verify_monotonicity,
    verify_prop4,
    wyner_estimate,
)
from .distributions import (
    AuxChannel,
    JointPmf,
    condition,
    constant_channel,
    copy_channel,
    deterministic_channel,
    join_with_aux,
    load_aux_channel,
    load_pmf,
    marginalize,
    product,
    save_aux_channel,
    save_pmf,
    validate,
    variable_channel,
)
from .errors import (
    ChannelTooLargeError,
    CodebookTooLargeError,
    EmptySelectionError,
    EnumerationTooLargeError,
    GrayWynerError,
    InvalidPmfError,
    KTooSmallError,
    MissingAuxAxisError,
    NegativeMassError,
    NegativeMeasureError,
    NotNormalizedError,
    OverlappingSelectionsError,
    ParseError,
    ShapeMismatchError,
    SupportTooLargeError,
    WitnessInfeasibleError,
    ZeroProbabilityEventError,
)
from .infotheory import (
    binary_entropy,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    markov_slack,
    mutual_information,
)
from .region import (
    AchievabilityResult,
    RateEquivocationTuple,
    SweepPoint,
    SweepResult,
    corner_point,
    delta_max,
    is_achievable,
    is_achievable_with,
    max_delta_at_r0,
    sweep_max_delta,
)

__version__ = "0.1.0"

# The names imported above; importing them also bound each submodule here,
# and those stay out.
__all__ = [
    name for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
