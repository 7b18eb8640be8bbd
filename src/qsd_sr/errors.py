"""Exception hierarchy for the qsd_sr package."""

__all__ = [
    "QsdError",
    "DomainError",
    "ConvergenceError",
    "BracketError",
    "ThresholdTooSmallError",
    "NoSurvivorsError",
]


class QsdError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QsdError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ConvergenceError(QsdError, RuntimeError):
    """An iterative scheme (series, quadrature, eigen iteration) failed to converge."""


class BracketError(QsdError, RuntimeError):
    """The scan of the analytic eigenvalue bracket did not find exactly one
    sign change of the eigenvalue equation.  Carries the bracket's ends, the
    equation's values there and the count of sign changes, ``changes``."""

    def __init__(self, lo, hi, g_lo, g_hi, changes):
        self.lo, self.hi, self.g_lo, self.g_hi = lo, hi, g_lo, g_hi
        self.changes = changes
        super().__init__(
            f"{changes} sign changes, not 1, in eigenvalue bracket [{lo:.6g}, {hi:.6g}]: "
            f"g(lo)={g_lo:.6g}, g(hi)={g_hi:.6g}"
        )


class ThresholdTooSmallError(QsdError, RuntimeError):
    """The requested asymptotic approximation does not exist because the
    detection threshold is too small for the truncated expansion."""


class NoSurvivorsError(QsdError, RuntimeError):
    """A killed-diffusion simulation ended with zero surviving paths.
    Increase the number of paths or reduce the horizon."""
