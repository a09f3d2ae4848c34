"""Spectral toolkit for minimal-energy fractional Lane-Emden ground states on
boxes, their blow-up asymptotics, and the associated Green-function and
Hardy-Littlewood-Sobolev checks."""

__version__ = "0.1.0"

from .spectral_domain import (
    BoxDomain,
    Grid,
    GridFunction,
    ResolutionError,
    SpectralBasis,
    SpectralField,
    analyze,
    build_basis,
    build_grid,
    integrate,
    lp_norm,
    synthesize,
    synthesize_at,
)
from .fractional_calculus import (
    KernelSample,
    RegimeError,
    UnresolvedSingularityError,
    apply_fraclap,
    apply_inverse,
    classify_regime,
    free_kernel,
    g_tilde,
    gns,
    green,
    regular_part,
    resolvability_threshold,
    serrin_exponent,
)
from .lane_emden import (
    ConvergenceError,
    CriticalPairError,
    ExponentPair,
    SolutionPair,
    SolveReport,
    alpha_beta,
    critical_q,
    energy,
    energy_reduced,
    identity_report,
    sobolev_quotient,
    solve_ground_state,
    solve_q_epsilon,
)
from .hls_limit import (
    DecayFit,
    FreeField,
    decay_fit,
    hls_quotient,
    serrin_log_integral,
    sharp_decay_check,
    sphere_area,
)
from .blowup_sweep import (
    ConstantEstimates,
    RescaledSolution,
    SweepConfig,
    SweepResult,
    SweepRow,
    boundary_bound_check,
    extrapolate_S,
    find_max,
    green_limit_check,
    limit_kernels,
    rescale_solution,
    run_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
