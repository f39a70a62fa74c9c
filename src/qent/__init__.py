"""Density-operator entropies and deformed entanglement measures."""

from .channels import (
    QuantumChannel,
    apply_channel,
    depolarizing_channel,
    local_channel,
    pinching_channel,
    random_channel,
    validate_cptp,
)
from .entanglement import (
    MeasureResult,
    OptimizerOptions,
    QStarReport,
    SeparableDecomposition,
    match_q,
    mutual_entropy_measure,
    pure_entanglement,
    relative_entropy_of_entanglement,
    tensor_bipartite,
    tsallis_measure,
)
from .entropy import (
    EntropyValue,
    q_log,
    tsallis_entropy,
    tsallis_relative_entropy,
    umegaki_relative_entropy,
    von_neumann_entropy,
)
from .linalg import (
    Spectrum,
    eig_hermitian,
    kron,
    matrix_log,
    matrix_power_q,
    partial_trace,
    trace_norm,
)
from .states import (
    BipartiteState,
    DensityOperator,
    bell_state,
    density_from_pure,
    load_state,
    random_density,
    random_unitary,
    reduced_product,
    save_state,
    validate_density,
    werner_state,
    werner_states,
)
from .werner import werner_er_closed, werner_sweep, werner_tsallis_closed

__version__ = "0.1.0"
