"""Phase transitions of a microtubule reaction-diffusion model.

Analysis and simulation toolkit for a three-field reaction-diffusion
system (growing microtubule density, shrinking density, free tubulin) on
an interval: uniform steady states, mode-by-mode linear stability,
instability thresholds along parameter rays, transition classification
via center-manifold reduction (continuous, jump, and mixed scenarios),
an IMEX time integrator to validate the predicted branches, and a
deterministic CSV/manifest artifact pipeline with a CLI.

The public API is re-exported here, lazily (PEP 562): ``import mtphase``
loads no submodule and no NumPy, and the first access to a name, such as
``mtphase.find_threshold``, imports the one submodule that defines it
(:data:`_EXPORTS`).  Submodule names (``mtphase.threshold``) resolve the
same way.  See the module docstrings for details (``model``,
``spectral``, ``threshold``, ``transition``, ``simulator``, ``config``,
``output``, ``sweep``, ``artifacts``, ``verification``, ``cli``).
"""

import importlib
import sys
import types

#: submodule -> the public names it exports through the package
_EXPORTS = {
    "version": ("__version__",),
    "errors": (
        "MTPhaseError", "ConfigError", "ParseError", "UnknownKey", "ValidationError",
        "NonPositiveParameter", "K1NotPositive", "NumericalError", "NotAnEigenvalue",
        "NoSignChange", "ComplexCrossing", "CurveLeftDomain", "StepCollapse", "Resonance",
        "SignPatternBroken", "DegenerateCoefficient", "OutOfTheory", "GridTooCoarse",
        "StepUnstable",
    ),
    "model": (
        "BoundaryCondition", "ModelParams", "ParamBatch", "SteadyState", "validate_params",
        "steady_state", "reaction_rhs", "linearization_matrix", "diffusion_matrix",
        "quadratic_nonlinearity",
    ),
    "spectral": (
        "Basis", "LaplacianMode", "ModeSpectrum", "laplacian_eigenvalue", "laplacian_mode",
        "mode_matrix", "mode_matrices", "char_poly_coeffs", "solve_spectrum",
        "companion_roots", "mode_spectra", "principal_eigenvalue", "principal_mode_vectors",
    ),
    "threshold": (
        "ParameterRay", "ParameterPlane", "ThresholdPoint", "Region", "RegionReport",
        "StabilityExchangeReport", "det_principal_mode", "find_threshold", "classify_region",
        "cond1_ok", "stability_exchange_report", "trace_threshold_curve",
    ),
    "transition": (
        "TransitionType", "QuadraticCoefficient", "TransitionReport", "quadratic_coefficient",
        "transition_number", "transition_number_simplified", "classify_transition",
    ),
    "simulator": (
        "Grid", "FieldState", "AmplitudeSeries", "SimulationResult", "CriticalMode",
        "MIN_GRID_POINTS", "LADDER_TOL", "LADDER_FLOOR", "ARK_TOL", "make_grid",
        "laplacian_apply", "dt_max", "initial_state", "Stepper", "critical_mode", "simulate",
    ),
    "config": (
        "AnalysisConfig", "SimulateConfig", "SweepConfig", "OutputConfig", "RunConfig",
        "parse_config", "parse_config_text", "serialize_config", "config_sha256",
    ),
    "output": ("MANIFEST_NAME", "write_csv", "sha256_file", "write_manifest", "read_manifest"),
    "sweep": ("PhaseGrid", "resolve_workers", "sweep"),
    "artifacts": (
        "run_steady_state", "run_spectrum", "run_threshold", "run_transition", "run_simulate",
        "run_phase_diagram",
    ),
    "verification": ("CriterionResult", "DEFAULT_SEED", "CRITERIA", "run_all",
                     "default_verify_config"),
    "cli": ("main",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})


class _Package(types.ModuleType):
    """The package's module type: loading submodule ``sweep`` leaves
    ``mtphase.sweep`` the function of that name.  The import system binds
    each submodule it loads on its package, which would replace it."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _SOURCE and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
