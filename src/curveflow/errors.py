"""Exception types shared across the package."""


class CurveFlowError(Exception):
    """Base class for all curveflow failures."""


class DegenerateSegmentError(CurveFlowError):
    """A step cannot resolve its state's segments, or produced an invalid or reversed curve."""


class LinearSolverError(CurveFlowError):
    """A cyclic tridiagonal solve failed: a dominance violation, a singular tridiagonal
    part, a singular rank-one correction or a non-finite result."""


class ConfigError(CurveFlowError):
    """Invalid run configuration (parse or validation failure)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
