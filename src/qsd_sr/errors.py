"""Exception hierarchy for the qsd_sr package."""

__all__ = [
    "QsdError",
    "DomainError",
    "ConvergenceError",
    "BracketError",
    "AmbiguousRootError",
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
    """The analytic eigenvalue bracket contains no sign change of the
    eigenvalue equation.  Carries the endpoint values for diagnosis."""

    def __init__(self, lo, hi, g_lo, g_hi):
        self.lo, self.hi, self.g_lo, self.g_hi = lo, hi, g_lo, g_hi
        super().__init__(
            f"no sign change in eigenvalue bracket [{lo:.6g}, {hi:.6g}]: "
            f"g(lo)={g_lo:.6g}, g(hi)={g_hi:.6g}"
        )


class AmbiguousRootError(QsdError, RuntimeError):
    """More than one root of the eigenvalue equation was found inside the
    bracket; all candidates are reported."""

    def __init__(self, roots):
        self.roots = tuple(roots)
        super().__init__(
            "eigenvalue bracket contains more than one root: "
            + ", ".join(f"{r:.12g}" for r in self.roots)
        )


class ThresholdTooSmallError(QsdError, RuntimeError):
    """The requested asymptotic approximation does not exist because the
    detection threshold is too small for the truncated expansion."""


class NoSurvivorsError(QsdError, RuntimeError):
    """A killed-diffusion simulation ended with zero surviving paths.
    Increase the number of paths or reduce the horizon."""
