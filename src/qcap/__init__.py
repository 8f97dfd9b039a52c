"""Capacity bounds for nonunital qubit channels.

Interior qubit channels can be scaled to a unital channel whose
classical capacity is known in closed form; the operator norms of the
scaling pair turn that value into two-sided capacity bounds.  The
package computes the scaling decomposition (closed form for the
four-parameter channel family, fixed-point iteration in general), the
resulting bounds, and the chi-capacity (exact for the family, by a
multistart search otherwise), and sweeps channel families into CSV/SVG
outputs.
"""

from .core import (
    CPReport,
    NoConvergence,
    NotInterior,
    NotUnital,
    PauliChannelParams,
    QubitChannel,
    apply_channel,
    apply_channel_matrix,
    apply_scaling,
    binary_entropy,
    bloch_to_density,
    choi_from_channel,
    compose,
    density_to_bloch,
    image_radius,
    is_completely_positive,
    is_interior,
    is_trace_preserving,
    is_unital,
    kraus_from_choi,
    kraus_ptm,
    operator_norm,
    ptm_from_params,
    von_neumann_entropy,
)
from .sinkhorn import (
    DecompositionResiduals,
    ScalingPair,
    UnitalForm,
    family_scaling_pair,
    family_unital_params,
    sinkhorn_iterate,
    unital_channel,
    unital_diagonalize,
    upsilon_ptm,
    verify_decomposition,
)
from .capacity import (
    CapacityBounds,
    ChiConfig,
    ChiResult,
    Ensemble,
    Report,
    analyze,
    chi_capacity_grid_oracle,
    chi_capacity_numeric,
    gad_bounds,
    gad_f,
    gad_norm_products,
    gad_params,
    holevo_quantity,
    mix_params,
    proposition_bounds,
    theorem_bound,
    unital_capacity,
)
from .protocol import (
    Code,
    Povm,
    modify_code,
    modify_povm,
    outcome_probabilities,
    success_probability,
    verify_rescaling_identity,
)

__version__ = "0.1.0"
