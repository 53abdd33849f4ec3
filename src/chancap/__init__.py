"""Capacities of finite-dimensional quantum channels and certified ratio bounds."""

from .capacity import (
    CapacityEstimate,
    SweepPoint,
    depolarizing_capacity_sweep,
    entanglement_assisted_capacity,
    holevo_quantity,
    max_output_divergence,
    mutual_information_gradient,
)
from .certify import (
    ChainReport,
    RatioBoundCheck,
    barycenter_dominance,
    capacity_ratio_prefactor,
    chain_report,
    family_total_weight,
    output_barycenter,
    support_margins,
    verify_ratio_bound,
)
from .channels import (
    QuantumChannel,
    channel_from_json,
    channel_to_json,
    depolarizing_channel,
    identity_channel,
    kraus_from_choi,
    random_channel,
)
from .entropy import (
    RelEntropyResult,
    dominance_constant,
    log_derivative_form,
    lower_bound_factor,
    mutual_information,
    relative_entropy,
    von_neumann_entropy,
)
from .linalg import (
    Eigensystem,
    PsdCheck,
    SchmidtDecomposition,
    hermitian_eig,
    is_psd,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    schmidt_decompose,
    seeded_rng,
    tensor_product,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
