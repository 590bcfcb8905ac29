"""Quantifiers of quantum coherence, purity, and correlations for
finite-dimensional density matrices: closed-form monotones, the universal
maximally-coherent-mixed-state construction, majorization-based
single-shot purity distillation and cost, and numerical hierarchy
verification."""

from . import coherence, correlations, io, linalg, majorization, purity, simplex, states, verify
from .coherence import (
    Channel,
    MubBasis,
    apply_channel,
    c_alpha,
    c_distance,
    c_distances,
    c_geometric,
    c_l1,
    c_max_closed,
    c_rel_entropy,
    dephase,
    fourier_basis,
    mcms,
    mio_channel_from_mixture,
    mio_channel_from_unitary,
    optimal_unitary,
    random_free_channel,
)
from .correlations import (
    Budget,
    OptResult,
    c_N,
    cnot_activation,
    discord_upper,
    hierarchy_checks,
    hierarchy_report,
    i_max_check,
    max_hierarchy_check,
    negativity,
    negativity_purity_bound,
    unitary_maximize,
)
from .linalg import (
    ConvergenceError,
    DomainError,
    EigenSystem,
    ValidationError,
    fidelity,
    haar_unitary,
    hermitian_eig,
    kron,
    partial_trace,
    partial_transpose,
    rel_entropy,
    renyi_divergence,
    sandwiched_renyi,
    schatten_norm,
    split,
    stream,
    trace_norm,
)
from .majorization import (
    ConversionCertificate,
    brute_force_cost,
    brute_force_distill,
    convertible_unital,
    distillable_purity_1shot,
    majorizes,
    purity_cost_1shot,
)
from .purity import (
    axiom_suite,
    p_2,
    p_alpha,
    p_coherence_based,
    p_distance,
    p_geometric,
    p_linear,
    p_rel_entropy,
    purity_report,
    random_unital,
)
from .simplex import MENU, SimplexOptConfig, grid_minimize
from .states import (
    DensityMatrix,
    Spectrum,
    diagonal,
    from_bloch,
    maximally_mixed,
    mutual_information,
    pure,
    random_density,
    renyi_entropy,
    validate,
    von_neumann,
)

__version__ = "0.1.0"
