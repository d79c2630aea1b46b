"""Relativistic free-motion time-of-arrival toolkit for 1D Dirac particles.

Natural units (hbar = c = 1), momentum along x.  The library covers the
closed-form spinor constructions, the quantized arrival-time operator on
momentum grids and in the energy representation, its eigenfunction families,
arrival-time distributions of wave packets with a flux-at-origin oracle, and
the nonrelativistic / massless limits together with the time-energy duality
and deficiency-index diagnostics.
"""
from .algebra import (
    DiracBasis,
    clifford_max_residual,
    dirac_basis,
    energy_spinor_derivative,
    energy_spinor_values,
    event_spinor_values,
    helicity_spinor,
    nr_limit_spinor,
    w_spinor_values,
    weight_factor,
)
from .arrival import (
    ArrivalDistribution,
    PacketSpec,
    arrival_distribution,
    arrival_distribution_nonrel,
    build_packet,
    evolve,
    flux_at_origin,
    l1_distance,
    peak_location,
    position_profile,
)
from .config import DEFAULT_CONFIG, ConfigError, RunConfig, config_from_dict, load_config
from .eigenfunctions import (
    ToaEigenfunction,
    event_eigenfunction,
    overlap_matrix,
    position_eigenfunction,
    resynthesize_time_family,
    time_eigenfunction,
)
from .grids import (
    EnergyGridFunction,
    GridSpinorField,
    MomentumGrid,
    apply_hamiltonian,
    apply_toa,
    apply_toa_energy,
    build_grid,
    commutator_residual,
    energy_function_on_branch,
    energy_inner_product,
    energy_measure_identity,
    symmetry_defect,
    to_energy_rep,
)
from .limits import (
    DeficiencyReport,
    DualSolution,
    LimitReport,
    deficiency_diagnostic,
    dual_residual,
    dual_solution,
    nr_eigen_limit_check,
    nr_eigenfunction_limit,
    nr_eigenfunction_limit_scan,
    nr_spinor_errors,
    nr_spinor_limit_scan,
)

__version__ = "0.1.0"
