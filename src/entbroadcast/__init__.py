"""Numerical laboratory for broadcasting entanglement with tunable universal cloners."""

from .analysis import (
    FilterParams,
    Interval,
    PptResult,
    WernerDecomposition,
    bell_quantity_m,
    bell_violation_range,
    boundary_bisect,
    correlation_tensor,
    filter_certificate,
    gisin_filter,
    local_separability_range,
    nonlocal_inseparability_range,
    ppt_test,
    teleportation_fidelity,
    werner_decompose,
)
from .broadcast import (
    BroadcastOutputs,
    EntangledInput,
    local_state,
    nonlocal_state,
    oracle_broadcast,
    oracle_states,
)
from .cloner import (
    ClonerParameter,
    GramNotPSDError,
    MachineKind,
    OutOfRangeError,
    analysis_parameter,
    clone_density,
    clone_fidelity,
    literal_isometry,
    make_cloner_parameter,
    universality_report,
)
from .claims import ClaimResult, verify_claims

__version__ = "0.1.0"
