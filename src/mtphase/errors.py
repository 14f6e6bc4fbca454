"""Exception hierarchy shared by all mtphase modules.

Two broad families matter for the command line tool: configuration problems
(bad user input, exit code 2) and numerical failures (an analysis that could
not be completed for legitimate mathematical reasons, exit code 3).  Anything
else is treated as an internal error (exit code 4).
"""

from __future__ import annotations


class MTPhaseError(Exception):
    """Base class for all errors raised by this package."""


# --------------------------------------------------------------------------
# configuration / validation errors (CLI exit code 2)


class ConfigError(MTPhaseError):
    """A problem with user-supplied configuration."""


class ParseError(ConfigError):
    """The config file could not be parsed at all."""


class UnknownKey(ConfigError):
    """The config file contains a section or key that is not in the schema."""


class ValidationError(ConfigError):
    """A config value is present but unusable (wrong type, missing, ...)."""

    def __init__(self, field: str, message: str = "") -> None:
        self.field = field
        super().__init__(f"{field}: {message}" if message else field)


class NonPositiveParameter(ConfigError):
    """A model parameter that must be strictly positive is not."""

    def __init__(self, field: str, value: float) -> None:
        self.field = field
        self.value = value
        super().__init__(f"parameter {field} must be > 0, got {float(value)!r}")


class K1NotPositive(ConfigError):
    """The feasibility combination K1 is not positive, so no positive
    steady state exists for these parameters."""

    def __init__(self, k1_value: float) -> None:
        self.k1_value = k1_value
        super().__init__(
            f"feasibility condition violated: K1 = {float(k1_value)!r} <= 0"
        )


# --------------------------------------------------------------------------
# numerical errors (CLI exit code 3)


class NumericalError(MTPhaseError):
    """An analysis step failed for a mathematical/numerical reason."""


class NotAnEigenvalue(NumericalError):
    """A closed-form eigenvector was requested for a value that is not an
    eigenvalue of the mode matrix."""


class NoSignChange(NumericalError):
    """The principal-mode determinant does not change sign over the bracket,
    so there is no threshold to find."""


class ComplexCrossing(NumericalError):
    """The principal eigenvalue crossing the imaginary axis has a
    non-negligible imaginary part; the real-crossing analysis does not
    apply."""


class CurveLeftDomain(NumericalError):
    """No point of the threshold curve lies inside the requested
    parameter window."""


class SignPatternBroken(NumericalError):
    """A characteristic coefficient breaks the certificate's sign pattern."""


class StepCollapse(NumericalError):
    """Curve continuation had to shrink its step below the minimum.

    The plane coordinates of the vertices found, each solved and checked
    like those of a finished curve, are attached as ``points``: an
    ``(n, 2)`` float array, ordered along the curve.
    """

    def __init__(self, message: str, points) -> None:
        self.points = points
        super().__init__(message)


class Resonance(NumericalError):
    """An interaction-mode eigenvalue is too close to zero for the slaved
    center-manifold correction to be evaluated."""


class DegenerateCoefficient(NumericalError):
    """The quadratic branch coefficient vanishes; the transcritical
    prediction is not available."""


class OutOfTheory(NumericalError):
    """A prediction was requested outside the regime the reduced amplitude
    equation covers (e.g. an attractor for a jump transition)."""


class GridTooCoarse(NumericalError):
    """Fewer grid points than the supported minimum were requested."""


class StepUnstable(NumericalError):
    """Time stepping produced non-finite values.

    ``last_state`` holds the most recent finite snapshot.
    """

    def __init__(self, message: str, last_state=None) -> None:
        self.last_state = last_state
        super().__init__(message)

