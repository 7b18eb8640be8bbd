"""Quasi-stationary distribution of the Generalized Shiryaev-Roberts
diffusion dR = dt + mu R dB killed at a threshold A.

Exact dominant eigenvalue, density, distribution function, moments and mode,
together with order-1/2/3 large-threshold approximations and independent
numerical oracles (discretized eigenproblem, Monte Carlo, quadrature
identities).
"""

from .errors import (
    AmbiguousRootError,
    BracketError,
    ConvergenceError,
    DomainError,
    NoSurvivorsError,
    QsdError,
    ThresholdTooSmallError,
)
from .specfun import (
    ModelParams,
    WhittakerIndex,
    exp_integral_e1,
    exp_scaled_e1,
    gamma_cx,
    lower_bound_l,
    meijer_g_special,
    speed_density,
    stationary_cdf,
    whittaker_w,
    whittaker_w_scaled,
)
from .eigensolver import (
    EigenBracket,
    EigenResult,
    dominant_eigenvalue,
    eigen_bracket,
)
from .qsd import (
    QsdSolution,
    boundary_flux_identity,
    build_solution,
    cdf,
    mean,
    mode,
    moments,
    pdf,
    variance,
)
from .asymptotics import (
    ApproxSolution,
    build_approx,
    index_derivative_identity,
    lambda_order1,
    lambda_order2,
    lambda_order3,
    whittaker_expansion3,
)


def __getattr__(name):
    # The names of __all__ not bound above are the oracles' (EmpiricalLaw,
    # GridSolution, sturm_liouville_eigen, ...), which need numpy.  They load
    # on first access (PEP 562), so importing the package does not pull it in.
    if name in __all__:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AmbiguousRootError",
    "ApproxSolution",
    "BracketError",
    "ConvergenceError",
    "DomainError",
    "EigenBracket",
    "EigenResult",
    "EmpiricalLaw",
    "GridSolution",
    "ModelParams",
    "NoSurvivorsError",
    "QsdError",
    "QsdSolution",
    "ThresholdTooSmallError",
    "WhittakerIndex",
    "boundary_flux_identity",
    "build_approx",
    "build_solution",
    "cdf",
    "dominant_eigenvalue",
    "eigen_bracket",
    "exp_integral_e1",
    "exp_scaled_e1",
    "gamma_cx",
    "index_derivative_check",
    "index_derivative_identity",
    "integral_identity_check",
    "lambda_order1",
    "lambda_order2",
    "lambda_order3",
    "lower_bound_l",
    "mean",
    "meijer_g_special",
    "mode",
    "moments",
    "norm_identity_check",
    "pdf",
    "simulate_killed_sr",
    "speed_density",
    "stationary_cdf",
    "sturm_liouville_eigen",
    "variance",
    "whittaker_expansion3",
    "whittaker_w",
    "whittaker_w_scaled",
]
