"""Classical/nonclassical decompositions of quantum observables and the
exact uncertainty relations connecting Fisher lengths to nonclassical
fluctuation strengths, verified numerically on spectral grids."""

__version__ = "0.1.0"

from .decomposition import (
    ClassicalComponent,
    DecompositionSummary,
    PomObservable,
    classical_estimate,
    continuity_residual,
    decomposition_summary,
    energy_split,
    estimate_error,
    extended_number_nonclassical,
    minimum_error,
)
from .densities import DiscreteDistribution, LineDensity, PlaneDensity, circle_density
from .energy import (
    BoundReport,
    EnergyModel,
    airy_first_zero,
    bouncer_exact_energy,
    coulomb_groundstate_bound,
    energy_identity,
    entropic_bound,
    entropic_groundstate_bound,
    fisher_bound,
    fisher_groundstate_bound,
)
from .fisher import (
    DiffusionRun,
    FisherMetrics,
    collision_length,
    diffusion_entropy_rate,
    entropy,
    fisher_covariance,
    fisher_length,
    fisher_length_mixed,
    fisher_length_periodic,
    phase_variance,
)
from .grids import GridSpec, local_derivative, spectral_derivative
from .mub import MubSet, complementarity_check, measurement_distribution, mub_construct
from .relations import (
    RelationReport,
    verify_conjugate,
    verify_general,
    verify_ivanovic,
    verify_multidim,
    verify_phase_angular,
    verify_phase_number,
    verify_position_momentum,
)
from .signals import gaussian_pulse, instantaneous_frequency, signal_from_samples, verify_time_frequency
from .states import (
    Constants,
    FiniteState,
    Grid2DPureState,
    GridMixedState,
    GridPureState,
    MixedState,
    PeriodicState,
    ensemble_sum,
    evolve_step,
    fock_basis_state,
    fock_state,
    gaussian_state,
    moment,
    momentum_density,
    state_from_dict,
    state_to_dict,
    to_momentum,
    variance,
)
from .twoparticle import (
    CorrelationPair,
    EprParams,
    build_epr,
    collapse_momentum,
    collapse_position,
    correlation_relation,
    correlations,
    epr_grids,
    epr_moments,
    nonclassical_components_2d,
    pair_moments,
)
from .wigner import (
    WignerGrid,
    position_classical_in_momentum,
    wigner_average_momentum,
    wigner_transform,
)
