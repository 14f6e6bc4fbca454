"""Phase transitions of a microtubule reaction-diffusion model.

Analysis and simulation toolkit for a three-field reaction-diffusion
system (growing microtubule density, shrinking density, free tubulin) on
an interval: uniform steady states, mode-by-mode linear stability,
instability thresholds along parameter rays, transition classification
via center-manifold reduction (continuous, jump, and mixed scenarios),
an IMEX time integrator to validate the predicted branches, and a
deterministic CSV/manifest artifact pipeline with a CLI.

The public API is re-exported here; see the module docstrings for
details (``model``, ``spectral``, ``threshold``, ``transition``,
``simulator``, ``config``, ``output``, ``sweep``, ``artifacts``,
``verification``, ``cli``).
"""

from .errors import (
    ComplexCrossing,
    ConfigError,
    CurveLeftDomain,
    DegenerateCoefficient,
    GridTooCoarse,
    K1NotPositive,
    MTPhaseError,
    NoSignChange,
    NonPositiveParameter,
    NotAnEigenvalue,
    NumericalError,
    OutOfTheory,
    ParseError,
    Resonance,
    SignPatternBroken,
    StepCollapse,
    StepUnstable,
    UnknownKey,
    ValidationError,
)
from .model import (
    BoundaryCondition,
    ModelParams,
    ParamBatch,
    SteadyState,
    diffusion_matrix,
    linearization_matrix,
    quadratic_nonlinearity,
    reaction_rhs,
    steady_state,
    validate_params,
)
from .spectral import (
    Basis,
    LaplacianMode,
    ModeSpectrum,
    char_poly_coeffs,
    companion_roots,
    laplacian_eigenvalue,
    laplacian_mode,
    mode_matrix,
    mode_matrices,
    mode_spectra,
    principal_eigenvalue,
    principal_mode_vectors,
    solve_spectrum,
)
from .threshold import (
    ParameterPlane,
    ParameterRay,
    Region,
    RegionReport,
    StabilityExchangeReport,
    ThresholdPoint,
    classify_region,
    cond1_ok,
    det_principal_mode,
    find_threshold,
    stability_exchange_report,
    trace_threshold_curve,
)
from .transition import (
    QuadraticCoefficient,
    TransitionReport,
    TransitionType,
    classify_transition,
    quadratic_coefficient,
    transition_number,
    transition_number_simplified,
)
from .simulator import (
    ARK_TOL,
    AmplitudeSeries,
    CriticalMode,
    FieldState,
    Grid,
    LADDER_FLOOR,
    LADDER_TOL,
    MIN_GRID_POINTS,
    SimulationResult,
    Stepper,
    critical_mode,
    dt_max,
    initial_state,
    laplacian_apply,
    make_grid,
    simulate,
)
from .config import (
    AnalysisConfig,
    OutputConfig,
    RunConfig,
    SimulateConfig,
    SweepConfig,
    config_sha256,
    parse_config,
    parse_config_text,
    serialize_config,
)
from .output import (
    MANIFEST_NAME,
    read_manifest,
    sha256_file,
    write_csv,
    write_manifest,
)
from .sweep import PhaseGrid, resolve_workers, sweep
from .artifacts import (
    run_phase_diagram,
    run_simulate,
    run_spectrum,
    run_steady_state,
    run_threshold,
    run_transition,
)
from .verification import (
    CRITERIA,
    CriterionResult,
    DEFAULT_SEED,
    default_verify_config,
    run_all,
)
from .version import __version__


def main(argv=None) -> int:
    """The ``mtphase`` command line (:func:`mtphase.cli.main`).

    :mod:`mtphase.cli` is imported on the first call, not with the
    package, so that ``python -m mtphase.cli`` runs the module once.
    """
    from .cli import main as cli_main

    return cli_main(argv)


__all__ = [
    "__version__",
    # errors
    "MTPhaseError",
    "ConfigError",
    "ParseError",
    "UnknownKey",
    "ValidationError",
    "NonPositiveParameter",
    "K1NotPositive",
    "NumericalError",
    "NotAnEigenvalue",
    "NoSignChange",
    "ComplexCrossing",
    "CurveLeftDomain",
    "StepCollapse",
    "Resonance",
    "SignPatternBroken",
    "DegenerateCoefficient",
    "OutOfTheory",
    "GridTooCoarse",
    "StepUnstable",
    # model
    "BoundaryCondition",
    "ModelParams",
    "ParamBatch",
    "SteadyState",
    "validate_params",
    "steady_state",
    "reaction_rhs",
    "linearization_matrix",
    "diffusion_matrix",
    "quadratic_nonlinearity",
    # spectral
    "Basis",
    "LaplacianMode",
    "ModeSpectrum",
    "laplacian_eigenvalue",
    "laplacian_mode",
    "mode_matrix",
    "mode_matrices",
    "char_poly_coeffs",
    "solve_spectrum",
    "companion_roots",
    "mode_spectra",
    "principal_eigenvalue",
    "principal_mode_vectors",
    # threshold
    "ParameterRay",
    "ParameterPlane",
    "ThresholdPoint",
    "Region",
    "RegionReport",
    "StabilityExchangeReport",
    "det_principal_mode",
    "find_threshold",
    "classify_region",
    "cond1_ok",
    "stability_exchange_report",
    "trace_threshold_curve",
    # transition
    "TransitionType",
    "QuadraticCoefficient",
    "TransitionReport",
    "quadratic_coefficient",
    "transition_number",
    "transition_number_simplified",
    "classify_transition",
    # simulator
    "Grid",
    "FieldState",
    "AmplitudeSeries",
    "SimulationResult",
    "CriticalMode",
    "MIN_GRID_POINTS",
    "LADDER_TOL",
    "LADDER_FLOOR",
    "ARK_TOL",
    "make_grid",
    "laplacian_apply",
    "dt_max",
    "initial_state",
    "Stepper",
    "critical_mode",
    "simulate",
    # config
    "AnalysisConfig",
    "SimulateConfig",
    "SweepConfig",
    "OutputConfig",
    "RunConfig",
    "parse_config",
    "parse_config_text",
    "serialize_config",
    "config_sha256",
    # output
    "MANIFEST_NAME",
    "write_csv",
    "sha256_file",
    "write_manifest",
    "read_manifest",
    # sweep
    "PhaseGrid",
    "resolve_workers",
    "sweep",
    # artifacts
    "run_steady_state",
    "run_spectrum",
    "run_threshold",
    "run_transition",
    "run_simulate",
    "run_phase_diagram",
    # verification
    "CriterionResult",
    "DEFAULT_SEED",
    "CRITERIA",
    "run_all",
    "default_verify_config",
    # cli
    "main",
]
